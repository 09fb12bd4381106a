package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/vmem"
)

// pagedRig builds a Mosaic system with the given residency budget (0:
// unbounded) and warms it: one app, eight 2MB regions, the first page of
// each faulted and landed. The returned rig has a pager in steady state.
func pagedRig(t *testing.T, budget uint64) *testRig {
	t.Helper()
	r := newRig(t, Mosaic, func(cfg *config.Config, opt *Options) {
		cfg.MaxResidentPages = budget
	})
	if err := r.sys.RegisterApp(1); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.AllocVirtual(0, 1, 0, 8*vmem.LargePageSize); err != nil {
		t.Fatal(err)
	}
	now := uint64(1)
	for i := uint64(0); i < 8; i++ {
		r.sys.EnsureResident(now, 1, vmem.VirtAddr(i*vmem.LargePageSize), event.Event{})
		now += 1000
		r.drain()
	}
	if (r.sys.pager.res != nil) != (budget > 0) {
		t.Fatalf("budget %d built a pager with residency policy %v", budget, r.sys.pager.res)
	}
	return r
}

// TestPolicySeamDispatchAllocFree guards the steady-state cost of the
// extracted policy seams: once a System is built, consulting the
// placement, coalesce, fill, and residency components must not allocate.
// These interface calls sit on the translate/fault hot path, so a policy
// implementation that allocates per query would show up in every run.
func TestPolicySeamDispatchAllocFree(t *testing.T) {
	r := pagedRig(t, 4*vmem.BasePagesPerLarge) // four 2MB frames
	s := r.sys
	p := s.pager
	e := p.res.Victim()
	if e == nil {
		t.Fatal("warm pager has no victim")
	}
	if avg := testing.AllocsPerRun(200, func() {
		_ = s.place.WholeFrame(true)
		_ = s.coalp.Promote()
		_ = s.coalp.CompactionEnabled()
		_ = s.fill.Bypass()
		_ = s.fill.LargeFill()
		p.res.Touch(e)
		if p.res.Victim() == nil {
			t.Fatal("victim vanished")
		}
	}); avg != 0 {
		t.Fatalf("policy seam dispatch allocates %.1f objects/op, want 0", avg)
	}
}

// TestPagerResidentHitAllocFree guards the pager's warm path: touching an
// already-resident page — through ResidencyPolicy.Touch (an intrusive
// list requeue) under a budget, a table lookup alone without one — must
// not allocate.
func TestPagerResidentHitAllocFree(t *testing.T) {
	for _, budget := range []uint64{4 * vmem.BasePagesPerLarge, 0} {
		s := pagedRig(t, budget).sys
		va := vmem.VirtAddr(vmem.LargePageSize) // faulted and landed by pagedRig
		if !s.EnsureResident(1<<20, 1, va, event.Event{}) {
			t.Fatalf("budget %d: warmed page not resident", budget)
		}
		if avg := testing.AllocsPerRun(200, func() {
			if !s.EnsureResident(1<<20, 1, va, event.Event{}) {
				t.Fatal("page fell out of residency during warm loop")
			}
		}); avg != 0 {
			t.Fatalf("budget %d: resident-hit fault path allocates %.1f objects/op, want 0", budget, avg)
		}
	}
}

// TestLRUResidencyCloneOrder pins the Clone contract third-party
// policies must honor: the clone preserves the source's exact victim
// order over remapped entries (the snapshot-fork byte-identity
// requirement from docs/ARCHITECTURE.md §6).
func TestLRUResidencyCloneOrder(t *testing.T) {
	res := NewLRUResidency()
	entries := make([]*PageEntry, 4)
	for i := range entries {
		entries[i] = &PageEntry{asid: 1, key: uint64(i), pages: 1}
		res.Insert(entries[i])
	}
	res.Touch(entries[0]) // victim order now 1, 2, 3, 0
	clones := make(map[uint64]*PageEntry, len(entries))
	for _, e := range entries {
		clones[e.key] = &PageEntry{asid: e.asid, key: e.key, pages: e.pages}
	}
	cl := res.Clone(func(e *PageEntry) *PageEntry { return clones[e.key] })
	for _, wantKey := range []uint64{1, 2, 3, 0} {
		v := cl.Victim()
		if v == nil {
			t.Fatalf("clone ran out of victims before key %d", wantKey)
		}
		if v.Key() != wantKey {
			t.Fatalf("clone victim key = %d, want %d", v.Key(), wantKey)
		}
		if v == entries[wantKey] {
			t.Fatal("clone returned a source entry instead of its remapped copy")
		}
		cl.Remove(v)
	}
	// The source policy must be untouched by draining the clone.
	if v := res.Victim(); v == nil || v.Key() != 1 {
		t.Fatalf("source policy disturbed by clone drain: victim %+v", v)
	}
}
