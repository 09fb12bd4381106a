// Package dram models the GPU's off-chip memory: multiple channels
// (one per memory partition), banks with open-row tracking, an FR-FCFS
// request scheduler per channel, and the in-DRAM bulk-copy primitive
// (RowClone/LISA) that the CAC-BC compaction variant exploits.
//
// The model is event-driven: requests enqueue with a completion event,
// the per-channel scheduler dispatches them to free banks preferring
// row-buffer hits over older requests (first-ready, first-come
// first-served), and the channel data bus serializes transfers.
package dram

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/vmem"
)

const noOpenRow = ^uint64(0)

// Request is one memory access presented to DRAM.
type Request struct {
	Addr vmem.PhysAddr
	// Done fires at the cycle the data burst completes.
	Done event.Event

	enqueued uint64
	bank     int
	row      uint64
}

// Stats aggregates DRAM activity counters.
type Stats struct {
	Accesses    uint64
	RowHits     uint64
	RowMisses   uint64
	BulkCopies  uint64 // RowClone/LISA page copies
	NarrowCopy  uint64 // 64-bit-at-a-time page copies
	BusyCycles  uint64 // channel data-bus occupancy
	MaxQueueLen int
	// ChannelAccesses counts accesses per channel (load-balance
	// diagnostics).
	ChannelAccesses []uint64
}

// RowHitRate returns RowHits / Accesses (0 when idle) — the row-buffer
// locality the FR-FCFS scheduler preserved.
func (s Stats) RowHitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Accesses)
}

type bank struct {
	openRow   uint64
	busyUntil uint64
	// retryQueued dedups wake-up events: at most one pending dispatch
	// retry per bank, or queue pressure makes event counts explode.
	retryQueued bool
}

type channel struct {
	banks   []bank
	queue   []Request
	busFree uint64
}

// DRAM is the whole off-chip memory system.
type DRAM struct {
	cfg      config.Config
	q        *event.Queue
	channels []channel
	stats    Stats
}

// New builds a DRAM model wired to the simulator's event queue.
func New(cfg config.Config, q *event.Queue) *DRAM {
	d := &DRAM{
		cfg:      cfg,
		q:        q,
		channels: make([]channel, cfg.MemoryPartitons),
	}
	d.stats.ChannelAccesses = make([]uint64, cfg.MemoryPartitons)
	for i := range d.channels {
		ch := &d.channels[i]
		ch.banks = make([]bank, cfg.DRAMBanksPerChannel)
		for b := range ch.banks {
			ch.banks[b].openRow = noOpenRow
		}
	}
	return d
}

// Stats returns a snapshot of the activity counters.
func (d *DRAM) Stats() Stats { return d.stats }

// Clone returns a deep copy of the DRAM model wired to q (a forked
// simulator's event queue): queued requests, open rows, pending-retry
// flags, bus-free times, and stats (including the per-channel access
// counts), so the clone's timing picks up exactly where the source's left
// off. The events already scheduled for this model travel with q.
func (d *DRAM) Clone(q *event.Queue) *DRAM {
	nd := &DRAM{cfg: d.cfg, q: q, channels: make([]channel, len(d.channels))}
	for i := range d.channels {
		ch := &d.channels[i]
		nd.channels[i] = channel{
			banks:   append([]bank(nil), ch.banks...),
			queue:   append([]Request(nil), ch.queue...),
			busFree: ch.busFree,
		}
	}
	nd.stats = d.stats
	nd.stats.ChannelAccesses = append([]uint64(nil), d.stats.ChannelAccesses...)
	return nd
}

// mixPage swizzles a page number so that strided access patterns spread
// evenly over channels and banks, as real GDDR address hashing does.
// The mapping is a fixed bijection-free hash: deterministic per page.
func mixPage(page uint64) uint64 {
	page ^= page >> 17
	page *= 0x9E3779B97F4A7C15
	page ^= page >> 29
	return page
}

// ChannelOf returns the channel index an address maps to. Channels
// interleave at base-page (4KB) granularity so that an entire base page
// lives in one channel — this is what lets CAC restrict compaction
// migrations to intra-channel moves (paper §4.4) and lets RowClone-style
// bulk copy operate on whole pages.
func (d *DRAM) ChannelOf(addr vmem.PhysAddr) int {
	return int(mixPage(addr.BaseFrameNumber()) % uint64(len(d.channels)))
}

func (d *DRAM) decompose(addr vmem.PhysAddr) (chanIdx, bankIdx int, row uint64) {
	page := addr.BaseFrameNumber()
	h := mixPage(page)
	nc := uint64(len(d.channels))
	chanIdx = int(h % nc)
	perChan := h / nc
	nb := uint64(d.cfg.DRAMBanksPerChannel)
	bankIdx = int(perChan % nb)
	// A 4KB page spans several rows of DRAMRowBytes each; consecutive
	// lines within the page share rows (spatial locality -> row hits).
	rowsPerPage := uint64(vmem.BasePageSize / d.cfg.DRAMRowBytes)
	if rowsPerPage == 0 {
		rowsPerPage = 1
	}
	row = perChan/nb*rowsPerPage + addr.PageOffset()/uint64(d.cfg.DRAMRowBytes)
	return
}

// Enqueue submits a read/write access. r.Done fires when the data burst
// finishes on the channel bus.
func (d *DRAM) Enqueue(now uint64, r Request) {
	chanIdx, bankIdx, row := d.decompose(r.Addr)
	r.enqueued = now
	r.bank = bankIdx
	r.row = row
	ch := &d.channels[chanIdx]
	ch.queue = append(ch.queue, r)
	if len(ch.queue) > d.stats.MaxQueueLen {
		d.stats.MaxQueueLen = len(ch.queue)
	}
	d.Dispatch(chanIdx, now)
}

// Retry handles a DRAMRetry event: bank bankIdx of channel chanIdx has
// freed, so its pending-retry flag clears and the channel dispatches.
func (d *DRAM) Retry(chanIdx, bankIdx int, now uint64) {
	d.channels[chanIdx].banks[bankIdx].retryQueued = false
	d.Dispatch(chanIdx, now)
}

// Dispatch applies FR-FCFS on one channel: for every bank that is free,
// pick the oldest row-hit request for that bank if one exists, otherwise
// the oldest request for that bank. DRAMDispatch events run it.
func (d *DRAM) Dispatch(chanIdx int, now uint64) {
	ch := &d.channels[chanIdx]
	for bankIdx := range ch.banks {
		b := &ch.banks[bankIdx]
		if b.busyUntil > now {
			// Retry once the bank frees, if it has queued work.
			if !b.retryQueued && d.hasWork(ch, bankIdx) {
				b.retryQueued = true
				d.q.Schedule(b.busyUntil, event.Event{Kind: event.DRAMRetry, Unit: uint32(chanIdx), Arg: uint64(bankIdx)})
			}
			continue
		}
		pos := d.pick(ch, bankIdx, b.openRow)
		if pos < 0 {
			continue
		}
		req := ch.queue[pos]
		ch.queue = append(ch.queue[:pos], ch.queue[pos+1:]...)
		d.service(chanIdx, bankIdx, &req, now)
	}
}

func (d *DRAM) hasWork(ch *channel, bankIdx int) bool {
	for i := range ch.queue {
		if ch.queue[i].bank == bankIdx {
			return true
		}
	}
	return false
}

// pick returns the queue position of the FR-FCFS choice among queued
// requests for bankIdx — the oldest request targeting the open row, else
// the oldest request — or -1 when the bank has none.
func (d *DRAM) pick(ch *channel, bankIdx int, openRow uint64) int {
	oldest := -1
	for i := range ch.queue {
		r := &ch.queue[i]
		if r.bank != bankIdx {
			continue
		}
		if openRow != noOpenRow && r.row == openRow {
			return i // queue order == age order, so first hit is oldest hit
		}
		if oldest < 0 {
			oldest = i
		}
	}
	return oldest
}

func (d *DRAM) service(chanIdx, bankIdx int, r *Request, now uint64) {
	ch := &d.channels[chanIdx]
	b := &ch.banks[bankIdx]

	lat := uint64(d.cfg.DRAMRowMissCycles)
	busy := uint64(d.cfg.DRAMRowMissBusy)
	if b.openRow == r.row {
		lat = uint64(d.cfg.DRAMRowHitCycles)
		busy = uint64(d.cfg.DRAMRowHitBusy)
		d.stats.RowHits++
	} else {
		d.stats.RowMisses++
		b.openRow = r.row
	}
	d.stats.Accesses++
	d.stats.ChannelAccesses[chanIdx]++

	// The bank is occupied for the (short) cycle time; the requester
	// observes the full access latency. Banks pipeline behind each other.
	ready := now + lat // data ready at the bank
	burst := uint64(d.cfg.DRAMBusCycles)
	start := max64(ready, ch.busFree)
	done := start + burst
	ch.busFree = done
	b.busyUntil = now + busy
	d.stats.BusyCycles += burst

	d.q.Schedule(done, r.Done)
	// The bank frees at `ready`; try to dispatch more work then.
	d.q.Schedule(ready, event.Event{Kind: event.DRAMDispatch, Unit: uint32(chanIdx)})
}

// CopyPageBulk performs a RowClone/LISA-style in-DRAM copy of one 4KB base
// page. Source and destination must reside in the same channel; it returns
// an error otherwise. It returns the cycle the copy completes, when the
// channel dispatches its queued work again.
func (d *DRAM) CopyPageBulk(now uint64, src, dst vmem.PhysAddr) (uint64, error) {
	sc := d.ChannelOf(src)
	if dc := d.ChannelOf(dst); dc != sc {
		return 0, fmt.Errorf("dram: bulk copy crosses channels (%d -> %d)", sc, dc)
	}
	ch := &d.channels[sc]
	start := max64(now, ch.busFree)
	finish := start + uint64(d.cfg.DRAMBulkCopyCycles)
	ch.busFree = finish
	d.stats.BulkCopies++
	d.q.Schedule(finish, event.Event{Kind: event.DRAMDispatch, Unit: uint32(sc)})
	return finish, nil
}

// CopyPageNarrow copies one 4KB base page 64 bits at a time over the
// channel bus — the conventional migration path (paper §4.4). It occupies
// the source channel for the whole transfer. It returns the cycle the
// copy completes, when the channel dispatches its queued work again.
func (d *DRAM) CopyPageNarrow(now uint64, src, dst vmem.PhysAddr) uint64 {
	// 4KB read + 4KB write at 64 bits/cycle.
	const words = vmem.BasePageSize / 8
	sc := d.ChannelOf(src)
	ch := &d.channels[sc]
	start := max64(now, ch.busFree)
	finish := start + 2*words
	ch.busFree = finish
	d.stats.NarrowCopy++
	d.stats.BusyCycles += 2 * words
	d.q.Schedule(finish, event.Event{Kind: event.DRAMDispatch, Unit: uint32(sc)})
	return finish
}

// PendingRequests reports the number of queued (not yet dispatched)
// requests across all channels.
func (d *DRAM) PendingRequests() int {
	n := 0
	for i := range d.channels {
		n += len(d.channels[i].queue)
	}
	return n
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
