// Package iobus models the system I/O (PCIe) bus between CPU and discrete
// GPU memory. Demand-paging far-faults transfer page data over this bus;
// the bus is a single serialized resource, so concurrent faults from
// multiple applications queue behind each other — the effect that makes
// 2MB-granularity demand paging catastrophic in the paper (§3.2, Fig. 4).
// Under a bounded residency budget the same link also carries write-backs
// of dirty evicted pages to the host tier.
//
// Transfer latencies default to the paper's measurements on a GTX 1080:
// 55 µs load-to-use for a 4KB page and 318 µs for a 2MB page.
package iobus

import (
	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/vmem"
)

// Stats aggregates bus activity.
type Stats struct {
	BaseTransfers  uint64
	LargeTransfers uint64
	BusyCycles     uint64
	// TotalQueueDelay accumulates cycles transfers spent waiting for the
	// bus behind earlier transfers.
	TotalQueueDelay uint64
	MaxQueueDepth   int
	// WriteBackBase / WriteBackLarge count eviction write-backs of dirty
	// pages to the host tier. They are not included in BaseTransfers /
	// LargeTransfers, which count fault-path page-in transfers only.
	WriteBackBase  uint64 `json:",omitempty"`
	WriteBackLarge uint64 `json:",omitempty"`
}

// TotalTransfers returns the number of page transfers of either size.
func (s Stats) TotalTransfers() uint64 { return s.BaseTransfers + s.LargeTransfers }

// TotalWriteBacks returns the number of eviction write-backs of either size.
func (s Stats) TotalWriteBacks() uint64 { return s.WriteBackBase + s.WriteBackLarge }

// Bus is the serialized system I/O link. Transfers pipeline: each
// occupies the link for its occupancy (bandwidth-bound), while the
// requesting warp observes the full load-to-use latency (fault handling +
// transfer). Not safe for concurrent use.
type Bus struct {
	q        *event.Queue
	baseLat  uint64
	largeLat uint64
	baseOcc  uint64
	largeOcc uint64

	busyUntil uint64
	// pageIn (by vmem.PageSize: a base page-in can land before an earlier
	// large one) and writeBack queue the completion cycles of issued,
	// undelivered transfers. Depth is derived from them at issue time, not
	// from event-queue completions, so a transfer completing exactly at
	// cycle c does not count toward the depth seen by an arrival at c.
	pageIn    [2]fifo
	writeBack fifo
	stats     Stats
}

// fifo is a sorted queue of cycles, live in q[head:].
type fifo struct {
	q    []uint64
	head int
}

// prune drops the entries completed by now and returns how many remain.
// Once at least half the array is dead the live tail is copied down, so
// a steady stream reuses one array.
func (f *fifo) prune(now uint64) int {
	for f.head < len(f.q) && f.q[f.head] <= now {
		f.head++
	}
	if 2*f.head >= len(f.q) {
		f.q, f.head = f.q[:copy(f.q, f.q[f.head:])], 0
	}
	return len(f.q) - f.head
}

// New builds a bus wired to the simulator's event queue using the
// configuration's fault latencies and occupancies.
func New(cfg config.Config, q *event.Queue) *Bus {
	return &Bus{
		q:        q,
		baseLat:  cfg.IOBaseFaultCycles,
		largeLat: cfg.IOLargeFaultCycles,
		baseOcc:  cfg.IOBaseOccupancyCycles,
		largeOcc: cfg.IOLargeOccupancyCycles,
	}
}

// Clone returns a deep copy of the bus wired to q (a forked simulator's
// event queue): busyUntil, the completion FIFOs and stats, so a fork sees
// the same future bus availability a cold run would. The completion
// events of transfers still in flight travel with q.
func (b *Bus) Clone(q *event.Queue) *Bus {
	nb := *b
	nb.q = q
	for _, f := range []*fifo{&nb.pageIn[0], &nb.pageIn[1], &nb.writeBack} {
		f.q, f.head = append([]uint64(nil), f.q[f.head:]...), 0
	}
	return &nb
}

// LoadToUseCycles returns the load-to-use latency of a fault of the given
// page size (55 us for 4KB, 318 us for 2MB on the paper's GTX 1080).
func (b *Bus) LoadToUseCycles(size vmem.PageSize) uint64 {
	if size == vmem.Large {
		return b.largeLat
	}
	return b.baseLat
}

// OccupancyCycles returns the link occupancy of one transfer.
func (b *Bus) OccupancyCycles(size vmem.PageSize) uint64 {
	if size == vmem.Large {
		return b.largeOcc
	}
	return b.baseOcc
}

// admit claims the link for one transfer arriving at now with the given
// occupancy, updating queue-delay and busy accounting, and returns the
// cycle the transfer starts moving data.
func (b *Bus) admit(now, occ uint64) uint64 {
	start := now
	if b.busyUntil > start {
		b.stats.TotalQueueDelay += b.busyUntil - start
		start = b.busyUntil
	}
	b.busyUntil = start + occ
	b.stats.BusyCycles += occ
	return start
}

// track queues a transfer completing at finish on FIFO f for a request
// arriving at now and updates MaxQueueDepth. Each FIFO is sorted (starts
// are monotone, a page-in lands a fixed delay after its start, and a
// write-back ends before any later start), so pruning heads is exact.
func (b *Bus) track(f *fifo, now, finish uint64) {
	d := 1 + b.pageIn[0].prune(now) + b.pageIn[1].prune(now) + b.writeBack.prune(now)
	f.q = append(f.q, finish)
	if d > b.stats.MaxQueueDepth {
		b.stats.MaxQueueDepth = d
	}
}

// Transfer queues a page transfer of the given size starting no earlier
// than now. done, unless it is the zero Event, fires at the cycle the page
// is fully resident in GPU memory (queue delay + load-to-use latency). It
// returns that cycle.
func (b *Bus) Transfer(now uint64, size vmem.PageSize, done event.Event) uint64 {
	start := b.admit(now, b.OccupancyCycles(size))
	finish := start + b.LoadToUseCycles(size)
	if size == vmem.Large {
		b.stats.LargeTransfers++
	} else {
		b.stats.BaseTransfers++
	}
	b.track(&b.pageIn[size], now, finish)
	if done != (event.Event{}) {
		b.q.Schedule(finish, done)
	}
	return finish
}

// WriteBack queues an eviction write-back of a dirty page to the host
// tier. The link is held for the transfer's occupancy exactly as for a
// page-in, but there is no fault-handling latency on top: done, unless it
// is the zero Event, fires (and the returned cycle is) when the data has
// left GPU memory, after which the frame may be reused. Because the bus
// is FIFO, any page-in issued after this write-back queues behind it, and
// write-backs finish in the order they were issued.
func (b *Bus) WriteBack(now uint64, size vmem.PageSize, done event.Event) uint64 {
	occ := b.OccupancyCycles(size)
	start := b.admit(now, occ)
	finish := start + occ
	if size == vmem.Large {
		b.stats.WriteBackLarge++
	} else {
		b.stats.WriteBackBase++
	}
	b.track(&b.writeBack, now, finish)
	if done != (event.Event{}) {
		b.q.Schedule(finish, done)
	}
	return finish
}

// BusyUntil reports the cycle at which the bus next becomes free.
func (b *Bus) BusyUntil() uint64 { return b.busyUntil }

// Stats returns a snapshot of the counters.
func (b *Bus) Stats() Stats { return b.stats }
