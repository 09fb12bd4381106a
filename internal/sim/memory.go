package sim

import (
	"math/rand"

	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/pagetable"
	"repro/internal/trace"
	"repro/internal/vmem"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// The per-lane memory path (translate, ensure residency, data access) is
// the simulator's hottest code: it runs once per lane per memory
// instruction. Each lane is a memReq in the simulator's request table,
// carried through its pipeline stages (l2Lookup → walkDone → translated →
// resident → complete) by events that name it by handle. Handles recycle
// through a free list, so the steady-state translate+data path performs
// no allocations, and the table is plain data that Fork copies whole. A
// handle is released exactly when complete runs, after which no pending
// event names it, so reuse can never resurrect a stale request.
type memReq struct {
	sm, warp  int32 // indices into s.sms and that SM's warps
	asid      vmem.ASID
	va        vmem.VirtAddr
	pa        vmem.PhysAddr
	walkStart uint64
}

// acquireReq takes a request handle from the free list (or grows the
// table) and initializes it for one lane access.
func (s *Simulator) acquireReq(m *sm, w *warp, va vmem.VirtAddr) uint32 {
	var h uint32
	if n := len(s.reqFree); n > 0 {
		h = s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
	} else {
		h = uint32(len(s.reqs))
		s.reqs = append(s.reqs, memReq{})
	}
	s.reqs[h] = memReq{sm: int32(m.id), warp: int32(w.idx), asid: m.app.asid, va: va}
	return h
}

// reqEvent is the event that runs stage k of request h.
func reqEvent(k event.Kind, h uint32) event.Event { return event.Event{Kind: k, Arg: uint64(h)} }

// accessPTE is the page-table read path when PTWalkCached is false: it
// contends for the L2 ports like any access but always fetches from DRAM,
// modeling page tables that do not stay resident in the thrashed L2 (the
// unscaled-working-set behavior; see DESIGN.md §5).
func (s *Simulator) accessPTE(now uint64, pa vmem.PhysAddr, done event.Event) {
	start := s.l2cGate.Admit(now)
	l2Lat := uint64(s.cfg.L2CacheLatency)
	s.mem.Enqueue(start+l2Lat, dram.Request{Addr: pa, Done: done})
}

// memInstr performs one lane-group memory access for warp w: translate,
// ensure residency (demand paging), then the data access through the
// cache hierarchy. The warp's outstanding count is decremented when the
// data arrives; w.outstanding must already cover this lane.
//
// The translate stage runs inline: L1 TLB (large then base) resolves
// synchronously; on a miss the request is handed to the L2 TLB via the
// port gate, and onward to the shared walker.
func (s *Simulator) memInstr(m *sm, w *warp, va vmem.VirtAddr) {
	h := s.acquireReq(m, w, va)
	asid := m.app.asid
	now := s.cycle
	l1Lat := uint64(s.cfg.L1TLBLatency)

	if s.mgr.TranslationBypass() {
		tr, ok := s.mgr.Translate(asid, va)
		s.l1Req++
		s.l1Hit++
		s.translated(h, now+l1Lat, tr.PhysOf(va), ok)
		return
	}

	// L1 TLB: large-page entries first (§4.3), then base.
	s.l1Req++
	if frame, ok := m.l1tlb.LookupLarge(asid, va); ok {
		s.l1Hit++
		s.translated(h, now+l1Lat, frame+vmem.PhysAddr(uint64(va)&(vmem.LargePageSize-1)), true)
		return
	}
	if frame, ok := m.l1tlb.LookupBase(asid, va); ok {
		s.l1Hit++
		s.translated(h, now+l1Lat, frame+vmem.PhysAddr(va.PageOffset()), true)
		return
	}

	// Shared L2 TLB: port contention then lookup latency.
	start := s.l2gate.Admit(now + l1Lat)
	s.q.Schedule(start+uint64(s.cfg.L2TLBLatency), reqEvent(event.L2Lookup, h))
}

// l2Lookup is the request's L2 TLB stage: lookup (large then base), then
// a page table walk on a miss.
func (s *Simulator) l2Lookup(h uint32, c uint64) {
	r := &s.reqs[h]
	m, asid, va := s.sms[r.sm], r.asid, r.va
	s.l2Req++
	if frame, ok := s.l2tlb.LookupLarge(asid, va); ok {
		s.l2Hit++
		m.l1tlb.InsertLarge(asid, va, frame)
		s.translated(h, c, frame+vmem.PhysAddr(uint64(va)&(vmem.LargePageSize-1)), true)
		return
	}
	if frame, ok := s.l2tlb.LookupBase(asid, va); ok {
		s.l2Hit++
		m.l1tlb.InsertBase(asid, va, frame)
		s.translated(h, c, frame+vmem.PhysAddr(va.PageOffset()), true)
		return
	}
	r.walkStart = c
	s.walker.Walk(c, asid, va, reqEvent(event.WalkDone, h))
}

// walkDone is the walker's result sink: the page-table-walk completion
// stage of the request the waiter event names.
func (s *Simulator) walkDone(c uint64, tr pagetable.Translation, ok bool, waiter event.Event) {
	h := uint32(waiter.Arg)
	r := &s.reqs[h]
	m, asid, va := s.sms[r.sm], r.asid, r.va
	s.rec.Record(trace.Event{
		Cycle: c, Kind: trace.EvWalk, ASID: asid,
		VA: va.BasePageBase(), Latency: c - r.walkStart,
	})
	if !ok {
		s.translated(h, c, 0, false)
		return
	}
	if tr.Size == vmem.Large {
		s.l2tlb.InsertLarge(asid, va, tr.Frame)
		m.l1tlb.InsertLarge(asid, va, tr.Frame)
	} else {
		s.l2tlb.InsertBase(asid, va, tr.Frame)
		m.l1tlb.InsertBase(asid, va, tr.Frame)
	}
	s.translated(h, c, tr.PhysOf(va), true)
}

// translated receives the translation result and moves the request to the
// residency stage (demand paging) or, on a fault, completes the lane.
func (s *Simulator) translated(h uint32, c uint64, pa vmem.PhysAddr, ok bool) {
	if !ok {
		s.trFaults++
		s.complete(h, c)
		return
	}
	r := &s.reqs[h]
	r.pa = pa
	if s.mgr.EnsureResident(c, r.asid, r.va, reqEvent(event.Resident, h)) {
		s.resident(h, c)
	}
}

// resident runs the physical access through the SM's L1 cache, the shared
// L2, and DRAM, with MSHR coalescing at both cache levels.
func (s *Simulator) resident(h uint32, c uint64) {
	r := &s.reqs[h]
	m, pa := s.sms[r.sm], r.pa
	l1Lat := uint64(s.cfg.L1CacheLatency)
	if m.l1cache.Lookup(pa) {
		s.complete(h, c+l1Lat)
		return
	}
	if first := m.l1cache.TrackMiss(pa, reqEvent(event.Complete, h)); first {
		s.accessL2(c+l1Lat, pa, event.Event{Kind: event.L1Fill, Unit: uint32(m.id), Arg: uint64(pa)})
	}
}

// complete runs when the lane's data arrives: it retires the lane on the
// warp and releases the request handle. Each stage hands off to exactly
// one successor, so no other event names the handle any more.
func (s *Simulator) complete(h uint32, c uint64) {
	m := s.sms[s.reqs[h].sm]
	w := m.warps[s.reqs[h].warp]
	s.reqFree = append(s.reqFree, h)
	w.outstanding--
	if w.outstanding == 0 {
		w.state = warpReady
		m.wakeAdd(w.idx, c+1)
		w.retired++
		w.computeLeft = w.gen.Spec().ComputePerMem + w.jitter()
	}
}

// accessL2 runs an access through the shared L2 cache and DRAM. It is
// also the walker's memory path (page table reads hit the L2 like data),
// so walk traffic competes with data traffic for the banked L2 ports.
func (s *Simulator) accessL2(now uint64, pa vmem.PhysAddr, done event.Event) {
	start := s.l2cGate.Admit(now)
	l2Lat := uint64(s.cfg.L2CacheLatency)
	if s.l2c.Lookup(pa) {
		s.q.Schedule(start+l2Lat, done)
		return
	}
	if first := s.l2c.TrackMiss(pa, done); first {
		s.mem.Enqueue(start+l2Lat, dram.Request{Addr: pa, Done: event.Event{Kind: event.L2Fill, Arg: uint64(pa)}})
	}
}
