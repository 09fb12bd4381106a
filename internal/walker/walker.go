// Package walker implements the shared, highly-threaded page table walker
// (paper §3.1): a fixed number of walk slots (64 by default) that each
// perform the serialized, dependent memory accesses of a 4-level page
// table walk through the shared L2 cache and DRAM. Duplicate in-flight
// walks for the same (ASID, base page) coalesce MSHR-style, and walks
// beyond the slot limit queue.
package walker

import (
	"math/bits"

	"repro/internal/event"
	"repro/internal/pagetable"
	"repro/internal/vmem"
)

// TableSet resolves per-application page tables for the walker. The memory
// manager implements it.
type TableSet interface {
	// WalkAddrs fills buf with the PTE addresses a hardware walk of
	// (asid, va) reads, in dependency order, and returns how many.
	WalkAddrs(asid vmem.ASID, va vmem.VirtAddr, buf *[pagetable.Levels]vmem.PhysAddr) int
	// Translate resolves (asid, va) from the page table.
	Translate(asid vmem.ASID, va vmem.VirtAddr) (pagetable.Translation, bool)
}

// AccessFunc performs one memory access of a walk and fires done at its
// completion cycle. level is the page-table level being read (0 = root);
// the memory system may treat hot upper levels and thrashy leaf levels
// differently. done is a WalkStep event naming the walk's slot; the
// memory system may wrap it (as a WalkFill) but must deliver the slot.
type AccessFunc func(now uint64, addr vmem.PhysAddr, level int, done event.Event)

// DeliverFunc receives a finished walk's result for one waiter, the
// event passed to Walk. ok is false when the page is not mapped (a page
// fault: the manager must handle it and retry).
type DeliverFunc func(cycle uint64, tr pagetable.Translation, ok bool, waiter event.Event)

type key struct {
	asid vmem.ASID
	vpn  uint64
}

type request struct {
	asid vmem.ASID
	va   vmem.VirtAddr
}

// walk is one slot's in-flight walk: its start cycle, the request, the
// n PTE addresses it reads, and the index of the next read.
type walk struct {
	start uint64
	req   request
	addrs [pagetable.Levels]vmem.PhysAddr
	n     int
	next  int
}

// LatencyBuckets is the number of power-of-two walk-latency histogram
// buckets kept in Stats.
const LatencyBuckets = 16

// Stats aggregates walker activity. All counters are monotonic within
// one simulation; Stats is a plain value, so a snapshot is one copy.
type Stats struct {
	Walks          uint64 // walks actually performed
	Coalesced      uint64 // requests merged into an in-flight walk
	Faults         uint64 // walks that found no mapping
	MemoryAccesses uint64
	TotalLatency   uint64 // sum of per-walk latencies, for averaging
	MaxQueued      int
	// LatencyHist buckets completed-walk latencies (cycles) by power of
	// two: bucket 0 counts walks finishing in 0 or 1 cycles, bucket i
	// (i >= 1) walks in [2^i, 2^(i+1)), and the last bucket is a
	// catch-all for anything at or above 2^(LatencyBuckets-1) cycles.
	LatencyHist [LatencyBuckets]uint64
}

// AvgLatency returns the mean walk latency in cycles.
func (s Stats) AvgLatency() float64 {
	if s.Walks == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Walks)
}

// latencyBucket maps one walk latency to its histogram bucket.
func latencyBucket(lat uint64) int {
	b := bits.Len64(lat) - 1 // floor(log2(lat)); -1 for lat == 0
	if b < 0 {
		b = 0
	}
	if b >= LatencyBuckets {
		b = LatencyBuckets - 1
	}
	return b
}

// Walker is the shared page table walker. Not safe for concurrent use.
type Walker struct {
	slots   []walk
	free    []uint32 // idle slot indices, used as a stack
	tables  TableSet
	access  AccessFunc
	deliver DeliverFunc
	pending []request
	// inflight maps a page under walk to the waiters of its result.
	inflight map[key][]event.Event
	// spare holds emptied waiter lists for new walks to reuse.
	spare [][]event.Event
	stats Stats
}

// New builds a walker with the given concurrency wired to the table set,
// the memory access path, and the sink of walk results.
func New(slots int, tables TableSet, access AccessFunc, deliver DeliverFunc) *Walker {
	if slots <= 0 {
		slots = 1
	}
	w := &Walker{
		slots:    make([]walk, slots),
		free:     make([]uint32, slots),
		tables:   tables,
		access:   access,
		deliver:  deliver,
		inflight: make(map[key][]event.Event),
	}
	for i := range w.free {
		w.free[i] = uint32(slots - 1 - i)
	}
	return w
}

// Clone returns a copy of the walker — slots, queued requests, coalesced
// waiters, and stats — rebound to a forked simulator's table set, memory
// access path, and result sink (all hold references to the owning
// engine, so the fork must supply its own). The accesses its walks are
// waiting on travel with the fork's event queue.
func (w *Walker) Clone(tables TableSet, access AccessFunc, deliver DeliverFunc) *Walker {
	nw := &Walker{
		slots:    append([]walk(nil), w.slots...),
		free:     append([]uint32(nil), w.free...),
		tables:   tables,
		access:   access,
		deliver:  deliver,
		pending:  append([]request(nil), w.pending...),
		inflight: make(map[key][]event.Event, len(w.inflight)),
		stats:    w.stats,
	}
	for k, waiters := range w.inflight {
		nw.inflight[k] = append([]event.Event(nil), waiters...)
	}
	return nw
}

// Stats returns a snapshot of the counters.
func (w *Walker) Stats() Stats { return w.stats }

// Active returns the number of walks currently occupying slots.
func (w *Walker) Active() int { return len(w.slots) - len(w.free) }

// Queued returns the number of walk requests waiting for a slot.
func (w *Walker) Queued() int { return len(w.pending) }

// Walk requests a translation of (asid, va). The result reaches the
// sink exactly once with waiter. Requests for a base page with a walk
// already in flight coalesce.
func (w *Walker) Walk(now uint64, asid vmem.ASID, va vmem.VirtAddr, waiter event.Event) {
	k := key{asid, va.BasePageNumber()}
	if waiters, ok := w.inflight[k]; ok {
		w.inflight[k] = append(waiters, waiter)
		w.stats.Coalesced++
		return
	}
	var ws []event.Event
	if n := len(w.spare); n > 0 {
		ws, w.spare = w.spare[n-1], w.spare[:n-1]
	}
	w.inflight[k] = append(ws, waiter)
	if len(w.free) == 0 {
		w.pending = append(w.pending, request{asid, va})
		if len(w.pending) > w.stats.MaxQueued {
			w.stats.MaxQueued = len(w.pending)
		}
		return
	}
	w.start(now, request{asid, va})
}

func (w *Walker) start(now uint64, r request) {
	slot := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	w.stats.Walks++
	wk := &w.slots[slot]
	*wk = walk{start: now, req: r}
	wk.n = w.tables.WalkAddrs(r.asid, r.va, &wk.addrs)
	w.Step(slot, now)
}

// Step issues slot's next dependent PTE access; when the chain ends it
// completes the walk. WalkStep events run it.
func (w *Walker) Step(slot uint32, now uint64) {
	wk := &w.slots[slot]
	if wk.next >= wk.n {
		w.finish(slot, now)
		return
	}
	i := wk.next
	wk.next++
	w.stats.MemoryAccesses++
	w.access(now, wk.addrs[i], i, event.Event{Kind: event.WalkStep, Unit: slot})
}

func (w *Walker) finish(slot uint32, now uint64) {
	start, r := w.slots[slot].start, w.slots[slot].req
	w.slots[slot] = walk{}
	w.free = append(w.free, slot)
	w.stats.TotalLatency += now - start
	w.stats.LatencyHist[latencyBucket(now-start)]++
	tr, ok := w.tables.Translate(r.asid, r.va)
	if !ok {
		w.stats.Faults++
	}
	k := key{r.asid, r.va.BasePageNumber()}
	waiters := w.inflight[k]
	delete(w.inflight, k)
	// Start a queued walk before delivering results so the freed slot is
	// reused this cycle.
	if len(w.pending) > 0 {
		next := w.pending[0]
		w.pending = w.pending[1:]
		w.start(now, next)
	}
	for _, ev := range waiters {
		w.deliver(now, tr, ok, ev)
	}
	w.spare = append(w.spare, waiters[:0])
}
