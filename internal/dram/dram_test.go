package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/vmem"
)

func newTestDRAM() (*DRAM, *event.Queue) {
	q := &event.Queue{}
	d := New(config.Default(), q)
	q.SetHandler(func(c uint64, ev event.Event) {
		switch ev.Kind {
		case event.DRAMDispatch:
			d.Dispatch(int(ev.Unit), c)
		case event.DRAMRetry:
			d.Retry(int(ev.Unit), int(ev.Arg), c)
		case testDone:
			callbacks[ev.Arg](c)
		}
	})
	return d, q
}

// testDone is a kind no component handles: it runs callbacks[Arg].
const testDone event.Kind = 255

var callbacks []func(uint64)

// on registers fn as a request's completion.
func on(fn func(uint64)) event.Event {
	callbacks = append(callbacks, fn)
	return event.Event{Kind: testDone, Arg: uint64(len(callbacks) - 1)}
}

// drain advances the event queue until no events remain, returning the
// cycle of the last event.
func drain(q *event.Queue) uint64 {
	var last uint64
	for {
		c, ok := q.NextCycle()
		if !ok {
			return last
		}
		q.RunDue(c)
		last = c
	}
}

func TestSingleAccessCompletes(t *testing.T) {
	d, q := newTestDRAM()
	var doneAt uint64
	d.Enqueue(0, Request{Addr: 0x1000, Done: on(func(c uint64) { doneAt = c })})
	drain(q)
	cfg := config.Default()
	want := uint64(cfg.DRAMRowMissCycles + cfg.DRAMBusCycles)
	if doneAt != want {
		t.Errorf("first access done at %d, want %d (row miss + burst)", doneAt, want)
	}
	s := d.Stats()
	if s.Accesses != 1 || s.RowMisses != 1 || s.RowHits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRowBufferHitIsFaster(t *testing.T) {
	d, q := newTestDRAM()
	var first, second uint64
	d.Enqueue(0, Request{Addr: 0x0, Done: on(func(c uint64) { first = c })})
	drain(q)
	// Same row (consecutive address in same line row, same channel/bank):
	// use the exact same address so mapping is identical.
	d.Enqueue(first, Request{Addr: 0x0, Done: on(func(c uint64) { second = c })})
	drain(q)
	cfg := config.Default()
	gap := second - first
	want := uint64(cfg.DRAMRowHitCycles + cfg.DRAMBusCycles)
	if gap != want {
		t.Errorf("row hit latency = %d, want %d", gap, want)
	}
	if d.Stats().RowHits != 1 {
		t.Errorf("RowHits = %d, want 1", d.Stats().RowHits)
	}
}

func TestChannelInterleaving(t *testing.T) {
	d, _ := newTestDRAM()
	cfg := config.Default()
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		addr := vmem.PhysAddr(i * vmem.BasePageSize)
		seen[d.ChannelOf(addr)] = true
	}
	if len(seen) != cfg.MemoryPartitons {
		t.Errorf("64 consecutive pages map to %d channels, want %d (hash should spread)", len(seen), cfg.MemoryPartitons)
	}
	// A whole base page stays in one channel.
	for off := 0; off < vmem.BasePageSize; off += cfg.L2CacheLineSz {
		if d.ChannelOf(vmem.PhysAddr(off)) != d.ChannelOf(0) {
			t.Fatalf("page spans channels at offset %d", off)
		}
	}
}

func TestChannelOfIsStable(t *testing.T) {
	d, _ := newTestDRAM()
	prop := func(raw uint64) bool {
		a := vmem.PhysAddr(raw & ((1 << 38) - 1))
		c := d.ChannelOf(a)
		return c >= 0 && c < config.Default().MemoryPartitons && c == d.ChannelOf(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBankParallelism(t *testing.T) {
	// Two requests to different banks in the same channel should overlap:
	// total time well under 2x serialized latency.
	d, q := newTestDRAM()
	cfg := config.Default()
	// Find two pages sharing a channel but on different banks.
	addr0 := vmem.PhysAddr(0)
	c0, b0, _ := d.decompose(addr0)
	var addr1 vmem.PhysAddr
	for i := 1; i < 4096; i++ {
		a := vmem.PhysAddr(i * vmem.BasePageSize)
		if c, b, _ := d.decompose(a); c == c0 && b != b0 {
			addr1 = a
			break
		}
	}
	if addr1 == 0 {
		t.Fatal("no same-channel different-bank page found")
	}
	var done0, done1 uint64
	d.Enqueue(0, Request{Addr: addr0, Done: on(func(c uint64) { done0 = c })})
	d.Enqueue(0, Request{Addr: addr1, Done: on(func(c uint64) { done1 = c })})
	drain(q)
	serialized := uint64(2 * (cfg.DRAMRowMissCycles + cfg.DRAMBusCycles))
	last := max64(done0, done1)
	if last >= serialized {
		t.Errorf("bank-parallel accesses took %d, not faster than serialized %d", last, serialized)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	d, q := newTestDRAM()
	// Find three pages on one channel+bank with two distinct rows.
	c0, b0, r0 := d.decompose(0)
	var pageA, pageB vmem.PhysAddr // two pages on distinct rows != r0
	for i := 1; i < 1<<16 && (pageA == 0 || pageB == 0); i++ {
		a := vmem.PhysAddr(i * vmem.BasePageSize)
		c, b, r := d.decompose(a)
		if c != c0 || b != b0 || r == r0 {
			continue
		}
		if pageA == 0 {
			pageA = a
		} else if _, _, ra := d.decompose(pageA); r != ra {
			pageB = a
		}
	}
	if pageA == 0 || pageB == 0 {
		t.Fatal("could not find suitable pages")
	}

	// Open row r0 on the bank.
	d.Enqueue(0, Request{Addr: 0})
	drain(q)

	// Enqueue, while the bank is still marked busy: A(rowA, miss),
	// B(rowB, miss, older than C), C(rowA, would-be hit after A).
	// FR-FCFS must service A (oldest, all misses), which opens rowA,
	// then prefer C (rowA hit) over the older B (rowB miss).
	var aDone, bDone, cDone uint64
	d.Enqueue(0, Request{Addr: pageA, Done: on(func(c uint64) { aDone = c })})
	d.Enqueue(0, Request{Addr: pageB, Done: on(func(c uint64) { bDone = c })})
	d.Enqueue(0, Request{Addr: pageA + 8, Done: on(func(c uint64) { cDone = c })})
	drain(q)
	if aDone == 0 || bDone == 0 || cDone == 0 {
		t.Fatal("not all requests completed")
	}
	if aDone > bDone || aDone > cDone {
		t.Errorf("oldest request did not go first: a=%d b=%d c=%d", aDone, bDone, cDone)
	}
	if cDone > bDone {
		t.Errorf("FR-FCFS did not prioritize the row hit: hit done %d, older miss done %d", cDone, bDone)
	}
}

func TestBulkCopySameChannel(t *testing.T) {
	d, q := newTestDRAM()
	cfg := config.Default()
	// Find two pages on the same channel.
	src := vmem.PhysAddr(0)
	var dst vmem.PhysAddr
	for i := 1; i < 4096; i++ {
		a := vmem.PhysAddr(i * vmem.BasePageSize)
		if d.ChannelOf(a) == d.ChannelOf(src) {
			dst = a
			break
		}
	}
	if dst == 0 {
		t.Fatal("no same-channel page found")
	}
	doneAt, err := d.CopyPageBulk(0, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if last := drain(q); last != doneAt {
		t.Errorf("channel redispatched at %d, want the copy's finish %d", last, doneAt)
	}
	if doneAt != uint64(cfg.DRAMBulkCopyCycles) {
		t.Errorf("bulk copy done at %d, want %d", doneAt, cfg.DRAMBulkCopyCycles)
	}
	if d.Stats().BulkCopies != 1 {
		t.Errorf("BulkCopies = %d", d.Stats().BulkCopies)
	}
}

func TestBulkCopyRejectsCrossChannel(t *testing.T) {
	d, _ := newTestDRAM()
	src := vmem.PhysAddr(0)
	var dst vmem.PhysAddr
	for i := 1; i < 4096; i++ {
		a := vmem.PhysAddr(i * vmem.BasePageSize)
		if d.ChannelOf(a) != d.ChannelOf(src) {
			dst = a
			break
		}
	}
	if dst == 0 {
		t.Fatal("no cross-channel page found")
	}
	if _, err := d.CopyPageBulk(0, src, dst); err == nil {
		t.Error("cross-channel bulk copy accepted, want error")
	}
}

func TestNarrowCopySlowerThanBulk(t *testing.T) {
	d, q := newTestDRAM()
	narrowDone := d.CopyPageNarrow(0, 0, 0x10000)
	if last := drain(q); last != narrowDone {
		t.Errorf("channel redispatched at %d, want the copy's finish %d", last, narrowDone)
	}
	cfg := config.Default()
	if narrowDone <= uint64(cfg.DRAMBulkCopyCycles) {
		t.Errorf("narrow copy (%d cycles) should be slower than bulk (%d)", narrowDone, cfg.DRAMBulkCopyCycles)
	}
	if narrowDone != 2*vmem.BasePageSize/8 {
		t.Errorf("narrow copy latency = %d, want %d", narrowDone, 2*vmem.BasePageSize/8)
	}
}

// Property: every enqueued request eventually completes exactly once.
func TestAllRequestsComplete(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		d, q := newTestDRAM()
		count := int(n%100) + 1
		completed := 0
		for i := 0; i < count; i++ {
			addr := vmem.PhysAddr((uint64(seed)*2654435761 + uint64(i)*7919) % (1 << 30))
			d.Enqueue(0, Request{Addr: addr, Done: on(func(uint64) { completed++ })})
		}
		drain(q)
		return completed == count && d.PendingRequests() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d, q := newTestDRAM()
	for i := 0; i < 10; i++ {
		d.Enqueue(0, Request{Addr: vmem.PhysAddr(i * 128)})
	}
	drain(q)
	s := d.Stats()
	if s.Accesses != 10 {
		t.Errorf("Accesses = %d, want 10", s.Accesses)
	}
	if s.RowHits+s.RowMisses != 10 {
		t.Errorf("hits+misses = %d, want 10", s.RowHits+s.RowMisses)
	}
	if s.BusyCycles == 0 {
		t.Error("BusyCycles should be nonzero")
	}
}
