package iobus

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/vmem"
)

func newBus() (*Bus, *event.Queue) {
	q := &event.Queue{}
	q.SetHandler(func(c uint64, ev event.Event) { callbacks[ev.Arg](c) })
	return New(config.Default(), q), q
}

var callbacks []func(uint64)

// on registers fn as a transfer's completion.
func on(fn func(uint64)) event.Event {
	callbacks = append(callbacks, fn)
	return event.Event{Kind: event.PageIn, Arg: uint64(len(callbacks) - 1)}
}

func drain(q *event.Queue) {
	for {
		c, ok := q.NextCycle()
		if !ok {
			return
		}
		q.RunDue(c)
	}
}

func TestBaseTransferLatency(t *testing.T) {
	b, q := newBus()
	var doneAt uint64
	b.Transfer(0, vmem.Base, on(func(c uint64) { doneAt = c }))
	drain(q)
	want := config.Default().IOBaseFaultCycles
	if doneAt != want {
		t.Errorf("4KB transfer done at %d, want %d", doneAt, want)
	}
}

func TestLargeTransferLatency(t *testing.T) {
	b, q := newBus()
	var doneAt uint64
	b.Transfer(0, vmem.Large, on(func(c uint64) { doneAt = c }))
	drain(q)
	want := config.Default().IOLargeFaultCycles
	if doneAt != want {
		t.Errorf("2MB transfer done at %d, want %d", doneAt, want)
	}
}

func TestPipelinedTransfers(t *testing.T) {
	b, q := newBus()
	var first, second uint64
	b.Transfer(0, vmem.Base, on(func(c uint64) { first = c }))
	b.Transfer(0, vmem.Base, on(func(c uint64) { second = c }))
	drain(q)
	cfg := config.Default()
	lat, occ := cfg.IOBaseFaultCycles, cfg.IOBaseOccupancyCycles
	if first != lat {
		t.Errorf("first transfer done at %d, want %d", first, lat)
	}
	// The second transfer queues behind the first's occupancy (bandwidth),
	// not its full load-to-use latency — faults pipeline.
	if second != occ+lat {
		t.Errorf("second transfer done at %d, want %d (occupancy + latency)", second, occ+lat)
	}
	if b.Stats().TotalQueueDelay != occ {
		t.Errorf("queue delay = %d, want %d", b.Stats().TotalQueueDelay, occ)
	}
}

func TestLargeTransferOccupancyDominates(t *testing.T) {
	// Back-to-back 2MB transfers serialize on their ~175us occupancy,
	// which is what collapses multi-app performance in Fig. 4.
	b, q := newBus()
	var second uint64
	b.Transfer(0, vmem.Large, event.Event{})
	b.Transfer(0, vmem.Large, on(func(c uint64) { second = c }))
	drain(q)
	cfg := config.Default()
	want := cfg.IOLargeOccupancyCycles + cfg.IOLargeFaultCycles
	if second != want {
		t.Errorf("second 2MB transfer done at %d, want %d", second, want)
	}
}

func TestLargeTransferBlocksLongerThanBase(t *testing.T) {
	// A 2MB transfer ahead of a 4KB transfer delays the 4KB one by ~6x
	// more than a 4KB transfer would — the core of the paper's Fig. 4.
	bLarge, qL := newBus()
	var afterLarge uint64
	bLarge.Transfer(0, vmem.Large, event.Event{})
	bLarge.Transfer(0, vmem.Base, on(func(c uint64) { afterLarge = c }))
	drain(qL)

	bBase, qB := newBus()
	var afterBase uint64
	bBase.Transfer(0, vmem.Base, event.Event{})
	bBase.Transfer(0, vmem.Base, on(func(c uint64) { afterBase = c }))
	drain(qB)

	if afterLarge <= afterBase {
		t.Errorf("queueing behind 2MB (%d) should exceed queueing behind 4KB (%d)", afterLarge, afterBase)
	}
}

func TestTransferReturnsCompletionCycle(t *testing.T) {
	b, _ := newBus()
	cfg := config.Default()
	fin := b.Transfer(100, vmem.Base, event.Event{})
	if fin != 100+cfg.IOBaseFaultCycles {
		t.Errorf("Transfer returned %d", fin)
	}
	if b.BusyUntil() != 100+cfg.IOBaseOccupancyCycles {
		t.Errorf("BusyUntil = %d, want %d", b.BusyUntil(), 100+cfg.IOBaseOccupancyCycles)
	}
}

func TestStats(t *testing.T) {
	b, q := newBus()
	b.Transfer(0, vmem.Base, event.Event{})
	b.Transfer(0, vmem.Large, event.Event{})
	b.Transfer(0, vmem.Base, event.Event{})
	drain(q)
	s := b.Stats()
	if s.BaseTransfers != 2 || s.LargeTransfers != 1 {
		t.Errorf("transfers = %d/%d, want 2/1", s.BaseTransfers, s.LargeTransfers)
	}
	if s.TotalTransfers() != 3 {
		t.Errorf("TotalTransfers = %d", s.TotalTransfers())
	}
	want := 2*config.Default().IOBaseOccupancyCycles + config.Default().IOLargeOccupancyCycles
	if s.BusyCycles != want {
		t.Errorf("BusyCycles = %d, want %d", s.BusyCycles, want)
	}
	if s.MaxQueueDepth != 3 {
		t.Errorf("MaxQueueDepth = %d, want 3", s.MaxQueueDepth)
	}
}

// Property: n pipelined base transfers finish at (n-1)*occupancy+latency,
// and busy cycles equal the summed occupancies.
func TestPipeliningProperty(t *testing.T) {
	prop := func(n uint8) bool {
		count := uint64(n%20) + 1
		b, q := newBus()
		var last uint64
		for i := uint64(0); i < count; i++ {
			b.Transfer(0, vmem.Base, on(func(c uint64) { last = c }))
		}
		drain(q)
		cfg := config.Default()
		lat, occ := cfg.IOBaseFaultCycles, cfg.IOBaseOccupancyCycles
		return last == (count-1)*occ+lat && b.Stats().BusyCycles == count*occ
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestOccupancyAccessors(t *testing.T) {
	b, _ := newBus()
	cfg := config.Default()
	if b.LoadToUseCycles(vmem.Base) != cfg.IOBaseFaultCycles {
		t.Error("base load-to-use mismatch")
	}
	if b.LoadToUseCycles(vmem.Large) != cfg.IOLargeFaultCycles {
		t.Error("large load-to-use mismatch")
	}
	if b.OccupancyCycles(vmem.Base) != cfg.IOBaseOccupancyCycles {
		t.Error("base occupancy mismatch")
	}
	if b.OccupancyCycles(vmem.Large) != cfg.IOLargeOccupancyCycles {
		t.Error("large occupancy mismatch")
	}
	// The defining asymmetry: 4KB transfers pipeline far better per byte.
	baseRate := float64(vmem.BasePageSize) / float64(b.OccupancyCycles(vmem.Base))
	largeRate := float64(vmem.LargePageSize) / float64(b.OccupancyCycles(vmem.Large))
	if baseRate < largeRate*0.5 || baseRate > largeRate*2 {
		t.Errorf("bus bandwidths differ wildly: %f vs %f B/cyc", baseRate, largeRate)
	}
}

func TestQueueDepthDrains(t *testing.T) {
	b, q := newBus()
	for i := 0; i < 5; i++ {
		b.Transfer(0, vmem.Base, event.Event{})
	}
	drain(q)
	if b.Stats().MaxQueueDepth != 5 {
		t.Errorf("MaxQueueDepth = %d, want 5", b.Stats().MaxQueueDepth)
	}
}

// TestArrivalExactlyAtBusyUntil pins the same-cycle contention boundary:
// a transfer arriving at the cycle the link frees (now == busyUntil) must
// start immediately and accrue zero queue delay — busyUntil is the first
// *free* cycle, not the last busy one.
func TestArrivalExactlyAtBusyUntil(t *testing.T) {
	b, q := newBus()
	cfg := config.Default()
	occ, lat := cfg.IOBaseOccupancyCycles, cfg.IOBaseFaultCycles
	b.Transfer(0, vmem.Base, event.Event{})
	if b.BusyUntil() != occ {
		t.Fatalf("BusyUntil = %d, want %d", b.BusyUntil(), occ)
	}
	var doneAt uint64
	fin := b.Transfer(occ, vmem.Base, on(func(c uint64) { doneAt = c }))
	drain(q)
	s := b.Stats()
	if s.TotalQueueDelay != 0 {
		t.Errorf("TotalQueueDelay = %d, want 0 (arrival exactly at busyUntil queues for nothing)", s.TotalQueueDelay)
	}
	if fin != occ+lat || doneAt != fin {
		t.Errorf("boundary transfer done at %d (returned %d), want %d", doneAt, fin, occ+lat)
	}
	if s.BusyCycles != 2*occ {
		t.Errorf("BusyCycles = %d, want %d (back-to-back occupancies, no idle gap)", s.BusyCycles, 2*occ)
	}
}

// TestSameCycleQueueAccounting pins the accounting when two transfers
// queue in one cycle: the second waits one occupancy, the third waits two,
// and MaxQueueDepth counts all three simultaneously outstanding.
func TestSameCycleQueueAccounting(t *testing.T) {
	b, q := newBus()
	cfg := config.Default()
	occ, lat := cfg.IOBaseOccupancyCycles, cfg.IOBaseFaultCycles
	var done [3]uint64
	for i := 0; i < 3; i++ {
		i := i
		b.Transfer(100, vmem.Base, on(func(c uint64) { done[i] = c }))
	}
	drain(q)
	s := b.Stats()
	if want := occ + 2*occ; s.TotalQueueDelay != want {
		t.Errorf("TotalQueueDelay = %d, want %d (occ + 2*occ)", s.TotalQueueDelay, want)
	}
	for i := uint64(0); i < 3; i++ {
		if want := 100 + i*occ + lat; done[i] != want {
			t.Errorf("transfer %d done at %d, want %d", i, done[i], want)
		}
	}
	if s.MaxQueueDepth != 3 {
		t.Errorf("MaxQueueDepth = %d, want 3", s.MaxQueueDepth)
	}
	if s.BusyCycles != 3*occ {
		t.Errorf("BusyCycles = %d, want %d", s.BusyCycles, 3*occ)
	}
}

// TestDepthExcludesCompletionsAtArrivalCycle is the regression test for
// the off-by-one the event-queue-ridden depth decrement left unpinned: a
// transfer completing exactly at cycle c has delivered its page by the
// time an arrival at c is observed, so the two never overlap in depth.
func TestDepthExcludesCompletionsAtArrivalCycle(t *testing.T) {
	b, _ := newBus()
	cfg := config.Default()
	lat := cfg.IOBaseFaultCycles
	fin := b.Transfer(0, vmem.Base, event.Event{})
	if fin != lat {
		t.Fatalf("first transfer finishes at %d, want %d", fin, lat)
	}
	// Arrive exactly at the first transfer's completion cycle, without
	// draining the event queue in between (the simulator can issue a new
	// fault from the very event wave that delivers the old page).
	b.Transfer(fin, vmem.Base, event.Event{})
	if d := b.Stats().MaxQueueDepth; d != 1 {
		t.Errorf("MaxQueueDepth = %d, want 1 (completion at arrival cycle must not overlap)", d)
	}
	// One cycle earlier they genuinely overlap.
	b2, _ := newBus()
	b2.Transfer(0, vmem.Base, event.Event{})
	b2.Transfer(lat-1, vmem.Base, event.Event{})
	if d := b2.Stats().MaxQueueDepth; d != 2 {
		t.Errorf("MaxQueueDepth = %d, want 2 (still in flight one cycle before completion)", d)
	}
}

// TestWriteBackHoldsLinkWithoutFaultLatency checks the eviction path: a
// write-back occupies the link like any transfer but completes after its
// occupancy alone — there is no fault-handling latency on the way out.
func TestWriteBackHoldsLinkWithoutFaultLatency(t *testing.T) {
	b, q := newBus()
	cfg := config.Default()
	var doneAt uint64
	fin := b.WriteBack(0, vmem.Base, on(func(c uint64) { doneAt = c }))
	drain(q)
	if want := cfg.IOBaseOccupancyCycles; fin != want || doneAt != want {
		t.Errorf("4KB write-back done at %d (returned %d), want %d", doneAt, fin, want)
	}
	s := b.Stats()
	if s.WriteBackBase != 1 || s.WriteBackLarge != 0 {
		t.Errorf("write-back counters = %d/%d, want 1/0", s.WriteBackBase, s.WriteBackLarge)
	}
	if s.BaseTransfers != 0 {
		t.Error("write-back leaked into BaseTransfers")
	}
	if s.BusyCycles != cfg.IOBaseOccupancyCycles {
		t.Errorf("BusyCycles = %d, want one occupancy", s.BusyCycles)
	}

	bl, ql := newBus()
	finL := bl.WriteBack(0, vmem.Large, event.Event{})
	drain(ql)
	if finL != cfg.IOLargeOccupancyCycles {
		t.Errorf("2MB write-back done at %d, want %d", finL, cfg.IOLargeOccupancyCycles)
	}
	if bl.Stats().WriteBackLarge != 1 {
		t.Error("large write-back not counted")
	}
	if bl.Stats().TotalWriteBacks() != 1 {
		t.Errorf("TotalWriteBacks = %d, want 1", bl.Stats().TotalWriteBacks())
	}
}

// TestWriteBackSerializesBeforePageIn pins the FIFO ordering the frame
// lifecycle depends on: a page-in issued after a write-back queues behind
// it, so the evicted frame's data is safely on the host before the new
// page's data lands.
func TestWriteBackSerializesBeforePageIn(t *testing.T) {
	b, q := newBus()
	cfg := config.Default()
	occ, lat := cfg.IOBaseOccupancyCycles, cfg.IOBaseFaultCycles
	var wbDone, inDone uint64
	b.WriteBack(0, vmem.Base, on(func(c uint64) { wbDone = c }))
	b.Transfer(0, vmem.Base, on(func(c uint64) { inDone = c }))
	drain(q)
	if wbDone != occ {
		t.Errorf("write-back done at %d, want %d", wbDone, occ)
	}
	if want := occ + lat; inDone != want {
		t.Errorf("page-in done at %d, want %d (queued behind the write-back)", inDone, want)
	}
	if b.Stats().TotalQueueDelay != occ {
		t.Errorf("TotalQueueDelay = %d, want %d", b.Stats().TotalQueueDelay, occ)
	}
}

// refDepth is the original linear-scan queue-depth model: one unsorted
// list of completion cycles, every entry that has completed by the new
// arrival pruned, then the new completion appended.
type refDepth struct {
	inflight []uint64
	max      int
}

func (r *refDepth) track(now, finish uint64) {
	live := r.inflight[:0]
	for _, f := range r.inflight {
		if f > now {
			live = append(live, f)
		}
	}
	r.inflight = append(live, finish)
	if d := len(r.inflight); d > r.max {
		r.max = d
	}
}

// liveCycles lists the bus's tracked completion cycles, sorted.
func liveCycles(b *Bus) []uint64 {
	var out []uint64
	for _, f := range []*fifo{&b.pageIn[0], &b.pageIn[1], &b.writeBack} {
		out = append(out, f.q[f.head:]...)
	}
	slices.Sort(out)
	return out
}

// cycles returns the reference model's in-flight cycles, sorted.
func (r *refDepth) cycles() []uint64 {
	out := slices.Clone(r.inflight)
	slices.Sort(out)
	return out
}

// Property: over random interleavings of base and large page-ins and
// write-backs, with arrival gaps from zero to past a large page-in's
// latency, the per-kind completion FIFOs hold exactly the set the linear
// scan kept, so depth and MaxQueueDepth match it after every call.
func TestQueueDepthMatchesLinearScanProperty(t *testing.T) {
	cfg := config.Default()
	gaps := []uint64{0, 1, cfg.IOBaseOccupancyCycles, 3 * cfg.IOBaseOccupancyCycles,
		cfg.IOBaseFaultCycles / 2, cfg.IOBaseFaultCycles, cfg.IOLargeOccupancyCycles,
		cfg.IOLargeFaultCycles, 2 * cfg.IOLargeFaultCycles}
	prop := func(ops []uint16) bool {
		b, _ := newBus()
		var ref refDepth
		now := uint64(0)
		for i, op := range ops {
			now += gaps[int(op>>2)%len(gaps)]
			size := vmem.PageSize(op & 1)
			var fin uint64
			if op&2 == 0 {
				fin = b.Transfer(now, size, event.Event{})
			} else {
				fin = b.WriteBack(now, size, event.Event{})
			}
			ref.track(now, fin)
			got, want := liveCycles(b), ref.cycles()
			if !slices.Equal(got, want) || b.Stats().MaxQueueDepth != ref.max {
				t.Logf("op %d (%#x) at %d: live %v, want %v; max %d, want %d",
					i, op, now, got, want, b.Stats().MaxQueueDepth, ref.max)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// A cloned bus carries the same live set and keeps matching.
	b, _ := newBus()
	var ref refDepth
	for i := uint64(0); i < 8; i++ {
		ref.track(i, b.Transfer(i, vmem.PageSize(i&1), event.Event{}))
	}
	nb := b.Clone(&event.Queue{})
	ref.track(9, nb.WriteBack(9, vmem.Base, event.Event{}))
	if got := liveCycles(nb); !slices.Equal(got, ref.cycles()) || nb.Stats().MaxQueueDepth != ref.max {
		t.Errorf("clone live %v (max %d), want %v (max %d)", got, nb.Stats().MaxQueueDepth, ref.cycles(), ref.max)
	}
	if len(liveCycles(b)) != 8 {
		t.Error("tracking on the clone disturbed the source")
	}
}

// TestTransferStreamAllocFree guards the queue-depth bookkeeping: once a
// steady stream of page-ins and write-backs has warmed the completion
// FIFOs, issuing more must not allocate.
func TestTransferStreamAllocFree(t *testing.T) {
	b, _ := newBus()
	cfg := config.Default()
	gap := cfg.IOLargeOccupancyCycles + 2*cfg.IOBaseOccupancyCycles
	now := uint64(0)
	step := func() {
		b.Transfer(now, vmem.Base, event.Event{})
		b.WriteBack(now, vmem.Base, event.Event{})
		b.Transfer(now, vmem.Large, event.Event{})
		now += gap
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("steady transfer stream allocates %.2f objects/op, want 0", avg)
	}
	if b.Stats().MaxQueueDepth < 3 {
		t.Fatalf("MaxQueueDepth = %d: stream never overlapped transfers", b.Stats().MaxQueueDepth)
	}
}
