package core

import (
	"math"

	"repro/internal/event"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// This file implements demand paging: a far-fault moves its page over the
// serialized I/O bus, and the pager's region-indexed table is the one
// record of residency. When Config.MaxResidentPages caps how many 4KB base
// pages may live in GPU memory at once, faults beyond the budget evict
// least-recently-used victims to a host/CXL remote tier. Victim
// granularity follows the manager's fault granularity — 4KB pages for the
// GPU-MMU baseline and Mosaic, whole 2MB frames for the 2MB-only manager
// (and for Mosaic when the victim belongs to a coalesced region, the
// thrash-amplification case the paper gestures at in §3.2). Dirty pages
// write back over the bus before their frame can be reused; the bus is
// FIFO, so a page-in issued after a write-back queues behind it and the
// outbound data is on the host before the inbound data lands. Evicted
// pages re-fault at bus latency.
//
// Residency is admission-controlled: a fault that cannot fit — even after
// evicting every resident victim — joins a FIFO fault queue and is
// admitted as in-flight transfers land and their pages become evictable.
// Memory therefore never holds more than the budget; warps simply wait
// longer when the pool is saturated, as they would behind a real GPU's
// fault queue.

// pageState is the lifecycle of one paged unit (a base page or, under
// 2MB fault granularity, a whole large page).
type pageState uint8

const (
	// pageRemote: data lives in the host tier; a touch far-faults.
	pageRemote pageState = iota
	// pageQueued: a fault is waiting for pool capacity; touches coalesce.
	pageQueued
	// pagePendingIn: a fault transfer is in flight; touches coalesce.
	pagePendingIn
	// pageResident: data is in GPU memory.
	pageResident
	// pagePendingOut: evicted dirty data is still draining to the host.
	pagePendingOut
)

// PageEntry is the pager's record of one paged unit — the value a
// ResidencyPolicy orders for victim selection. Entries carry intrusive
// list links so policies built on ResidencyQueue never allocate per
// operation. The small fields come first so an entry packs into 72 bytes.
type PageEntry struct {
	asid  vmem.ASID
	state pageState
	dirty bool
	// evicted marks entries that left GPU memory at least once, so their
	// next fault counts as a refault.
	evicted bool
	// freed marks entries whose virtual range was deallocated while a
	// transfer was still in flight; the completion must not resurrect
	// them (their budget was already released).
	freed   bool
	key     uint64 // faultKey: base or large page number
	va      vmem.VirtAddr
	pages   uint64 // base pages covered: 1, or 512 under FaultLarge
	waiters []event.Event
	// Intrusive residency-queue links (only meaningful while resident).
	prev, next *PageEntry
}

// ASID returns the owning application's address-space id.
func (e *PageEntry) ASID() vmem.ASID { return e.asid }

// Key returns the paged unit's fault key (base or large page number,
// per the policy's fill granularity).
func (e *PageEntry) Key() uint64 { return e.key }

// VA returns the base-page-aligned virtual address of the unit's last
// fault.
func (e *PageEntry) VA() vmem.VirtAddr { return e.va }

// Pages returns how many base pages the unit covers (1, or 512 under
// large-page fill).
func (e *PageEntry) Pages() uint64 { return e.pages }

// Dirty reports whether the unit has been written since it became
// resident (and so owes a write-back on eviction).
func (e *PageEntry) Dirty() bool { return e.dirty }

// pageRegion is one application's 2MB region in the pager's table: a slot
// per base page (number mod 512), or one entry in slot 0 under large-page
// fill, and the occupied count. A coalesced victim's siblings are the
// occupied slots of its own region.
type pageRegion struct {
	slots [vmem.BasePagesPerLarge]*PageEntry
	live  int
}

// regionKey packs an application's 2MB region into one map key.
func regionKey(asid vmem.ASID, largePN uint64) uint64 { return uint64(asid)<<48 | largePN }

// pager tracks every demand-paged unit. Without a residency bound its
// budget is infinite, so admission never queues or evicts, and res is
// nil, so no victim order or dirty data is kept.
type pager struct {
	s       *System
	size    vmem.PageSize // every unit's size: the fault granularity
	budget  uint64        // MaxResidentPages in base pages, or MaxUint64
	used    uint64        // base pages resident or committed to pending faults
	regions map[uint64]*pageRegion
	// chunk holds zeroed entries that new units are carved from, so
	// faulting costs one allocation per len(chunk) units, not one each.
	chunk []PageEntry
	// queued is the FIFO admission queue of faults waiting for capacity.
	queued []*PageEntry
	// pageIns holds the entries whose page-in transfer is on the bus, and
	// writeBacks the victim groups whose write-back is, each in issue
	// order. Every page-in of one pager has the same size, so the bus
	// finishes page-ins, like write-backs, in issue order, and each PageIn
	// or PageOut event completes the oldest entry of its queue.
	pageIns    []*PageEntry
	writeBacks [][]*PageEntry
	// res orders resident entries for victim selection (the policy's
	// ResidencyPolicy; LRU by default), or is nil when unbounded.
	res ResidencyPolicy
}

func newPager(s *System) *pager {
	p := &pager{s: s, size: vmem.Base, budget: math.MaxUint64, regions: make(map[uint64]*pageRegion)}
	if s.fill.LargeFill() {
		p.size = vmem.Large
	}
	// The ideal TLB stands in for a system unconstrained by memory
	// management, so it is exempt from the residency bound too.
	if s.cfg.MaxResidentPages > 0 && !s.fill.Bypass() {
		p.budget, p.res = s.cfg.MaxResidentPages, s.newRes()
	}
	return p
}

// newEntry returns a zeroed entry carved off the current chunk.
func (p *pager) newEntry() *PageEntry {
	if len(p.chunk) == 0 {
		p.chunk = make([]PageEntry, 64)
	}
	e := &p.chunk[0]
	p.chunk = p.chunk[1:]
	return e
}

func (p *pager) faultKey(va vmem.VirtAddr) uint64 {
	if p.size == vmem.Large {
		return va.LargePageNumber()
	}
	return va.BasePageNumber()
}

// locate returns the table key, region (nil if absent) and slot of a unit.
func (p *pager) locate(asid vmem.ASID, key uint64) (uint64, *pageRegion, int) {
	rk, i := regionKey(asid, key/vmem.BasePagesPerLarge), int(key%vmem.BasePagesPerLarge)
	if p.size == vmem.Large {
		rk, i = regionKey(asid, key), 0
	}
	return rk, p.regions[rk], i
}

// entry returns a unit's entry, or nil when the pager has none.
func (p *pager) entry(asid vmem.ASID, key uint64) *PageEntry {
	if _, r, i := p.locate(asid, key); r != nil {
		return r.slots[i]
	}
	return nil
}

// insert files a new entry; an emptied region is dropped by release.
func (p *pager) insert(e *PageEntry) {
	rk, r, i := p.locate(e.asid, e.key)
	if r == nil {
		r = &pageRegion{}
		p.regions[rk] = r
	}
	r.slots[i] = e
	r.live++
}

// clone deep-copies the pager for a forked manager ns. Every entry —
// in the table, the admission queue, or a transfer in flight, freed or
// not — is duplicated once with its waiters, so an entry reachable from
// several places stays one entry in the copy. The residency policy is
// cloned over the copies in the exact victim order of the source, so the
// fork's next eviction picks the same victim the source would have.
func (p *pager) clone(ns *System) *pager {
	np := &pager{
		s:       ns,
		size:    p.size,
		budget:  p.budget,
		used:    p.used,
		regions: make(map[uint64]*pageRegion, len(p.regions)),
	}
	copies := make(map[*PageEntry]*PageEntry)
	cp := func(e *PageEntry) *PageEntry {
		if n, ok := copies[e]; ok {
			return n
		}
		n := np.newEntry()
		*n = *e
		n.waiters = append([]event.Event(nil), e.waiters...)
		n.prev, n.next = nil, nil // the residency policy's clone relinks
		copies[e] = n
		return n
	}
	cpAll := func(es []*PageEntry) []*PageEntry {
		out := make([]*PageEntry, len(es))
		for i, e := range es {
			out[i] = cp(e)
		}
		return out
	}
	np.queued = cpAll(p.queued)
	np.pageIns = cpAll(p.pageIns)
	for _, g := range p.writeBacks {
		np.writeBacks = append(np.writeBacks, cpAll(g))
	}
	for rk, r := range p.regions {
		nr := &pageRegion{live: r.live}
		for i, e := range r.slots {
			if e != nil {
				nr.slots[i] = cp(e)
			}
		}
		np.regions[rk] = nr
	}
	if p.res != nil {
		np.res = p.res.Clone(cp)
	}
	return np
}

// pageDirty deterministically decides whether a page gets written while
// resident (~half do). Keyed by identity, not history, so repeated
// evict/refault cycles of one page behave consistently.
func pageDirty(asid vmem.ASID, key uint64) bool {
	h := (uint64(asid)+1)*0x9E3779B97F4A7C15 + key*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return h&1 == 1
}

// ensureResident is the fault path behind System.EnsureResident: true
// means already resident (done does not fire), false means done fires
// when the page lands.
func (p *pager) ensureResident(now uint64, asid vmem.ASID, va vmem.VirtAddr, done event.Event) bool {
	s := p.s
	key := p.faultKey(va)
	e := p.entry(asid, key)
	if e != nil {
		switch e.state {
		case pageResident:
			if p.res != nil {
				p.res.Touch(e)
			}
			return true
		case pageQueued, pagePendingIn:
			e.waiters = append(e.waiters, done)
			s.stats.CoalescedFaults++
			return false
		}
		// pageRemote or pagePendingOut: fall through to fault. A fault
		// while the write-back drains is safe — the bus is FIFO, so the
		// page-in transfer queues behind the outbound data.
	} else {
		e = p.newEntry()
		e.asid, e.key, e.pages = asid, key, p.size.Bytes()/vmem.BasePageSize
		p.insert(e)
	}
	e.va = va.BasePageBase()
	if e.evicted {
		s.stats.Refaults++
	}
	s.stats.FarFaults++
	e.waiters = append(e.waiters[:0], done)

	// Admission control: earlier queued faults go first, and a fault that
	// does not fit even after evicting every resident victim waits its
	// turn rather than overcommitting memory.
	if len(p.queued) > 0 {
		e.state = pageQueued
		p.queued = append(p.queued, e)
		return false
	}
	p.ensureCapacity(now, e.pages)
	if p.used+e.pages > p.budget {
		e.state = pageQueued
		p.queued = append(p.queued, e)
		return false
	}
	p.issue(now, e)
	return false
}

// issue commits an admitted fault's budget and puts its transfer on the
// bus. The caller has already verified the pages fit.
func (p *pager) issue(now uint64, e *PageEntry) {
	s := p.s
	p.used += e.pages
	if p.res != nil && p.used > s.stats.PeakResidentPages {
		s.stats.PeakResidentPages = p.used
	}
	e.state = pagePendingIn
	p.pageIns = append(p.pageIns, e)
	fin := s.bus.Transfer(now, p.size, event.Event{Kind: event.PageIn})
	s.trace.Record(trace.Event{
		Cycle: now, Kind: trace.EvFarFault, ASID: e.asid,
		VA: e.va, Size: p.size.Bytes(), Latency: fin - now,
	})
}

// pageIn lands the oldest in-flight page-in and wakes its waiters.
func (p *pager) pageIn(cycle uint64) {
	e := p.pageIns[0]
	p.pageIns[0] = nil
	p.pageIns = p.pageIns[1:]
	waiters := e.waiters
	e.waiters = nil
	if !e.freed {
		e.state = pageResident
		if p.res != nil {
			e.dirty = pageDirty(e.asid, e.key)
			p.res.Insert(e)
		}
	}
	// The landed page is evictable, so capacity may now exist for
	// faults the admission queue was holding back.
	p.admit(cycle)
	for _, w := range waiters {
		p.s.q.Fire(cycle, w)
	}
}

// admit drains the fault queue in FIFO order for as long as capacity can
// be made. Every in-flight transfer eventually lands and becomes
// evictable, so the queue always makes progress.
func (p *pager) admit(now uint64) {
	for len(p.queued) > 0 {
		e := p.queued[0]
		if e.freed {
			// The range was deallocated while the fault waited; unblock
			// its warps without moving any data.
			p.queued = p.queued[1:]
			waiters := e.waiters
			e.waiters = nil
			for _, w := range waiters {
				p.s.q.Fire(now, w)
			}
			continue
		}
		p.ensureCapacity(now, e.pages)
		if p.used+e.pages > p.budget {
			return
		}
		p.queued = p.queued[1:]
		p.issue(now, e)
	}
}

// ensureCapacity evicts policy-selected victims until pages more base
// pages fit in the budget, stopping early when nothing is resident.
func (p *pager) ensureCapacity(now uint64, pages uint64) {
	for p.used+pages > p.budget {
		victim := p.res.Victim()
		if victim == nil {
			return // nothing resident to evict
		}
		p.evict(now, victim)
	}
}

// evict pushes one policy-selected victim out of GPU memory. Under
// base-page fault granularity a victim inside a coalesced Mosaic region
// takes its whole 2MB frame with it: the frame's pages are interleaved
// physically, so reclaiming contiguous space means evicting all of them —
// one large write-back if any page is dirty. Residency is a tier below
// translation: the mapping and coalesced status survive; only the data
// moves, and it faults back page by page.
func (p *pager) evict(now uint64, victim *PageEntry) {
	s := p.s
	group, size := []*PageEntry{victim}, p.size
	if size == vmem.Base && s.apps[victim.asid].table.IsCoalesced(victim.va) {
		// Gather every resident sibling of the victim's 2MB region.
		_, r, _ := p.locate(victim.asid, victim.key)
		for _, sib := range r.slots {
			if sib != nil && sib != victim && sib.state == pageResident {
				group = append(group, sib)
			}
		}
		// A lone remnant of an already-evicted frame moves 4KB of data,
		// not 2MB; only a multi-page gather earns the bulk transfer.
		if len(group) > 1 {
			size = vmem.Large
		}
	}

	dirty := false
	for _, e := range group {
		if e.dirty {
			dirty = true
		}
		p.res.Remove(e)
		p.used -= e.pages
		s.stats.EvictedPages += e.pages
		e.evicted = true
		e.dirty = false
	}
	s.stats.Evictions++
	if dirty {
		// The budget frees immediately — the FIFO bus guarantees the
		// outbound data precedes any subsequently issued page-in — but
		// the entries stay pending-out until the link has drained them.
		s.stats.WriteBacks++
		for _, e := range group {
			e.state = pagePendingOut
		}
		p.writeBacks = append(p.writeBacks, group)
		s.bus.WriteBack(now, size, event.Event{Kind: event.PageOut})
	} else {
		s.stats.CleanDrops++
		for _, e := range group {
			e.state = pageRemote
		}
	}
}

// pageOut retires the oldest in-flight write-back: its pages are now on
// the host.
func (p *pager) pageOut() {
	group := p.writeBacks[0]
	p.writeBacks[0] = nil
	p.writeBacks = p.writeBacks[1:]
	for _, e := range group {
		if e.state == pagePendingOut {
			e.state = pageRemote
		}
	}
}

// release forgets a paged unit whose virtual range was freed. Freed pages
// vacate the budget immediately; no write-back is owed for data the
// application discarded. A queued fault's entry stays freed-marked in the
// admission queue and is discharged by admit without moving data.
func (p *pager) release(asid vmem.ASID, key uint64) {
	rk, r, slot := p.locate(asid, key)
	if r == nil || r.slots[slot] == nil {
		return
	}
	e := r.slots[slot]
	if e.state == pageResident || e.state == pagePendingIn {
		p.used -= e.pages
	}
	e.freed = true
	if p.res != nil {
		p.res.Remove(e)
	}
	r.slots[slot] = nil
	if r.live--; r.live == 0 {
		delete(p.regions, rk)
	}
}

// ResidentPages reports the base pages resident or committed to pending
// faults — the count a residency budget bounds.
func (s *System) ResidentPages() uint64 { return s.pager.used }
