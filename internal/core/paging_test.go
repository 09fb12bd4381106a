package core

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/vmem"
)

// checkPagingInvariants asserts the counter relationships every bounded-
// residency run must satisfy: each eviction resolves to exactly one
// write-back or clean drop, and the manager's write-back count matches
// what actually crossed the bus.
func checkPagingInvariants(t *testing.T, r *testRig) {
	t.Helper()
	s := r.sys.Stats()
	if s.Evictions != s.WriteBacks+s.CleanDrops {
		t.Errorf("Evictions (%d) != WriteBacks (%d) + CleanDrops (%d)",
			s.Evictions, s.WriteBacks, s.CleanDrops)
	}
	if bus := r.sys.bus.Stats(); bus.TotalWriteBacks() != s.WriteBacks {
		t.Errorf("bus write-backs (%d) != manager WriteBacks (%d)",
			bus.TotalWriteBacks(), s.WriteBacks)
	}
	if r.sys.ResidentPages() > r.cfg.MaxResidentPages {
		t.Errorf("resident pages %d exceed budget %d",
			r.sys.ResidentPages(), r.cfg.MaxResidentPages)
	}
	if s.PeakResidentPages > r.cfg.MaxResidentPages {
		t.Errorf("peak resident pages %d exceed budget %d (admission control breached)",
			s.PeakResidentPages, r.cfg.MaxResidentPages)
	}
	checkPagerConservation(t, r.sys)
}

// checkPagerConservation asserts the pager's budget accounting at any
// cycle: used equals the pages of the live table entries that are
// resident or pending in, never exceeds the budget when one exists, and
// every page-in on the bus belongs to a pending-in entry.
func checkPagerConservation(t testing.TB, sys *System) {
	t.Helper()
	p := sys.pager
	var pages uint64
	for _, r := range p.regions {
		for _, e := range r.slots {
			if e != nil && !e.freed && (e.state == pageResident || e.state == pagePendingIn) {
				pages += e.pages
			}
		}
	}
	if p.used != pages {
		t.Errorf("pager used = %d, live resident and pending-in entries hold %d pages", p.used, pages)
	}
	if p.used > p.budget {
		t.Errorf("pager used = %d exceeds budget %d", p.used, p.budget)
	}
	for i, e := range p.pageIns {
		if e.state != pagePendingIn {
			t.Errorf("page-in %d (key %d) is in state %d, want pending-in", i, e.key, e.state)
		}
	}
}

func newPagedRig(t *testing.T, policy Policy, budget uint64) *testRig {
	return newRig(t, policy, func(c *config.Config, _ *Options) {
		c.MaxResidentPages = budget
	})
}

func TestPagerEvictsLRUBasePages(t *testing.T) {
	const budget = 512
	r := newPagedRig(t, GPUMMU4K, budget)
	r.sys.RegisterApp(1)

	// Fault exactly the budget: no eviction.
	for i := uint64(0); i < budget; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), event.Event{})
	}
	r.drain()
	if s := r.sys.Stats(); s.Evictions != 0 {
		t.Fatalf("evictions before budget exceeded: %+v", s)
	}
	if got := r.sys.ResidentPages(); got != budget {
		t.Fatalf("ResidentPages = %d, want %d", got, budget)
	}
	if !r.sys.IsResident(1, 0) {
		t.Fatal("first page not resident")
	}

	// One past the budget: the least-recently-used page (the first) goes.
	r.sys.EnsureResident(0, 1, vmem.VirtAddr(budget*vmem.BasePageSize), event.Event{})
	r.drain()
	s := r.sys.Stats()
	if s.Evictions != 1 || s.EvictedPages != 1 {
		t.Fatalf("evictions = %d / pages = %d, want 1/1", s.Evictions, s.EvictedPages)
	}
	if r.sys.IsResident(1, 0) {
		t.Error("LRU victim still resident")
	}
	if !r.sys.IsResident(1, vmem.BasePageSize) {
		t.Error("second page (not LRU) evicted")
	}
	if s.PeakResidentPages != budget {
		t.Errorf("PeakResidentPages = %d, want %d", s.PeakResidentPages, budget)
	}
	checkPagingInvariants(t, r)

	// Touching a page moves it off the LRU tail: re-touch the now-oldest
	// page (page 1), fault another new one, and page 2 must be the victim.
	if !r.sys.EnsureResident(100, 1, vmem.BasePageSize, event.Event{}) {
		t.Fatal("touch of resident page should not fault")
	}
	r.sys.EnsureResident(100, 1, vmem.VirtAddr((budget+1)*vmem.BasePageSize), event.Event{})
	r.drain()
	if !r.sys.IsResident(1, vmem.BasePageSize) {
		t.Error("recently touched page evicted (not LRU order)")
	}
	if r.sys.IsResident(1, 2*vmem.BasePageSize) {
		t.Error("expected page 2 to be the second victim")
	}
	checkPagingInvariants(t, r)
}

func TestPagerRefaultCountsAndCompletes(t *testing.T) {
	const budget = 512
	r := newPagedRig(t, GPUMMU4K, budget)
	r.sys.RegisterApp(1)
	for i := uint64(0); i < budget; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), event.Event{})
	}
	r.drain()
	r.sys.EnsureResident(0, 1, vmem.VirtAddr(budget*vmem.BasePageSize), event.Event{}) // evicts page 0
	r.drain()
	if r.sys.Stats().Refaults != 0 {
		t.Fatal("refault counted before any re-touch")
	}
	var doneAt uint64
	if r.sys.EnsureResident(1000, 1, 0, on(func(c uint64) { doneAt = c })) {
		t.Fatal("evicted page claimed resident")
	}
	r.drain()
	s := r.sys.Stats()
	if s.Refaults != 1 {
		t.Errorf("Refaults = %d, want 1", s.Refaults)
	}
	if doneAt < 1000+r.cfg.IOBaseFaultCycles {
		t.Errorf("refault completed at %d, want >= %d (bus latency)", doneAt, 1000+r.cfg.IOBaseFaultCycles)
	}
	if !r.sys.IsResident(1, 0) {
		t.Error("refaulted page not resident")
	}
	checkPagingInvariants(t, r)
}

func TestPagerDirtyWriteBackAndCleanDropBothOccur(t *testing.T) {
	// Evict many single pages; the deterministic dirty hash marks ~half,
	// so both paths must appear and partition the evictions.
	const budget = 512
	r := newPagedRig(t, GPUMMU4K, budget)
	r.sys.RegisterApp(1)
	for i := uint64(0); i < budget; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), event.Event{})
	}
	r.drain()
	for i := uint64(0); i < 64; i++ {
		r.sys.EnsureResident(1, 1, vmem.VirtAddr((budget+i)*vmem.BasePageSize), event.Event{})
	}
	r.drain()
	s := r.sys.Stats()
	if s.Evictions != 64 {
		t.Fatalf("Evictions = %d, want 64", s.Evictions)
	}
	if s.WriteBacks == 0 || s.CleanDrops == 0 {
		t.Errorf("want both write-backs (%d) and clean drops (%d) among 64 evictions",
			s.WriteBacks, s.CleanDrops)
	}
	bus := r.sys.bus.Stats()
	if bus.WriteBackBase != s.WriteBacks || bus.WriteBackLarge != 0 {
		t.Errorf("bus write-backs base/large = %d/%d, manager %d", bus.WriteBackBase, bus.WriteBackLarge, s.WriteBacks)
	}
	checkPagingInvariants(t, r)
}

func TestPagerLargeGranularityEviction(t *testing.T) {
	// The 2MB-only manager faults and evicts whole large pages: budget for
	// one frame means every new region displaces the previous one — the
	// thrash amplification of §3.2.
	r := newPagedRig(t, GPUMMU2M, 512)
	r.sys.RegisterApp(1)
	r.sys.EnsureResident(0, 1, 0, event.Event{})
	r.drain()
	if got := r.sys.ResidentPages(); got != 512 {
		t.Fatalf("ResidentPages = %d after one 2MB fault, want 512", got)
	}
	r.sys.EnsureResident(0, 1, vmem.LargePageSize, event.Event{})
	r.drain()
	s := r.sys.Stats()
	if s.Evictions != 1 || s.EvictedPages != 512 {
		t.Fatalf("evictions = %d / pages = %d, want 1/512", s.Evictions, s.EvictedPages)
	}
	if r.sys.IsResident(1, 0) {
		t.Error("evicted 2MB page still resident")
	}
	bus := r.sys.bus.Stats()
	if s.WriteBacks == 1 && bus.WriteBackLarge != 1 {
		t.Errorf("dirty 2MB eviction should cross the bus as one large write-back, got %+v", bus)
	}
	checkPagingInvariants(t, r)
}

func TestPagerMosaicEvictsWholeCoalescedFrame(t *testing.T) {
	// Mosaic faults at 4KB but a victim inside a coalesced region takes
	// the whole 2MB frame with it: one eviction, 512 pages, at most one
	// large write-back. Translation survives — pages refault individually.
	r := newPagedRig(t, Mosaic, 512)
	r.sys.RegisterApp(1)
	if err := r.sys.AllocVirtual(0, 1, 0, 2<<20); err != nil {
		t.Fatal(err)
	}
	if r.sys.Stats().Coalesces != 1 {
		t.Fatal("region did not coalesce")
	}
	for i := uint64(0); i < 512; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), event.Event{})
	}
	r.drain()
	if got := r.sys.ResidentPages(); got != 512 {
		t.Fatalf("ResidentPages = %d, want 512", got)
	}

	// Fault a page of a second (uncoalesced) range: the LRU victim is
	// page 0 of the coalesced region, and its whole frame goes.
	if err := r.sys.AllocVirtual(0, 1, vmem.VirtAddr(8<<21), 64<<10); err != nil {
		t.Fatal(err)
	}
	r.sys.EnsureResident(0, 1, vmem.VirtAddr(8<<21), event.Event{})
	r.drain()
	s := r.sys.Stats()
	if s.Evictions != 1 || s.EvictedPages != 512 {
		t.Fatalf("evictions = %d / pages = %d, want 1/512 (whole coalesced frame)", s.Evictions, s.EvictedPages)
	}
	bus := r.sys.bus.Stats()
	if s.WriteBacks+s.CleanDrops != 1 {
		t.Fatalf("frame eviction split into %d write-backs + %d drops", s.WriteBacks, s.CleanDrops)
	}
	if s.WriteBacks == 1 && bus.WriteBackLarge != 1 {
		t.Errorf("coalesced-frame write-back should be one 2MB transfer, bus %+v", bus)
	}
	// Translation is intact (residency is a tier below translation).
	if tr, ok := r.sys.Translate(1, 0); !ok || tr.Size != vmem.Large {
		t.Errorf("coalesced translation lost on eviction: %+v %v", tr, ok)
	}
	if r.sys.IsResident(1, 0) || r.sys.IsResident(1, vmem.BasePageSize) {
		t.Error("evicted frame pages still resident")
	}
	// Pages come back at base granularity, counted as refaults.
	r.sys.EnsureResident(0, 1, 0, event.Event{})
	r.drain()
	s = r.sys.Stats()
	if s.Refaults != 1 {
		t.Errorf("Refaults = %d, want 1", s.Refaults)
	}
	if !r.sys.IsResident(1, 0) || r.sys.IsResident(1, vmem.BasePageSize) {
		t.Error("refault should restore one base page only")
	}
	checkPagingInvariants(t, r)
}

func TestPagerMosaicUncoalescedEvictsSinglePages(t *testing.T) {
	r := newPagedRig(t, Mosaic, 512)
	r.sys.RegisterApp(1)
	// A 1MB allocation does not coalesce; victims are single base pages.
	if err := r.sys.AllocVirtual(0, 1, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 512; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr((i%256)*vmem.BasePageSize+(i/256)<<30), event.Event{})
	}
	r.drain()
	r.sys.EnsureResident(0, 1, vmem.VirtAddr(3<<30), event.Event{})
	r.drain()
	s := r.sys.Stats()
	if s.Evictions == 0 {
		t.Fatal("no eviction past budget")
	}
	if s.EvictedPages != s.Evictions {
		t.Errorf("uncoalesced Mosaic evictions should be single pages: %d evictions, %d pages",
			s.Evictions, s.EvictedPages)
	}
	checkPagingInvariants(t, r)
}

func TestPagerCoalescesConcurrentFaults(t *testing.T) {
	r := newPagedRig(t, GPUMMU4K, 512)
	r.sys.RegisterApp(1)
	first, second := false, false
	r.sys.EnsureResident(0, 1, 0x100, on(func(uint64) { first = true }))
	r.sys.EnsureResident(0, 1, 0x200, on(func(uint64) { second = true }))
	if s := r.sys.Stats(); s.FarFaults != 1 || s.CoalescedFaults != 1 {
		t.Fatalf("fault stats = %+v, want one transfer + one coalesced", s)
	}
	r.drain()
	if !first || !second {
		t.Error("waiters not fired")
	}
}

func TestPagerAdmissionQueueBoundsResidency(t *testing.T) {
	// Burst twice the budget of faults at cycle 0, before anything can
	// land: the pool must never commit beyond the budget — the excess
	// waits in the fault queue and is admitted as transfers land, and
	// every waiter still fires exactly once.
	const budget = 512
	r := newPagedRig(t, GPUMMU4K, budget)
	r.sys.RegisterApp(1)
	fired := 0
	for i := uint64(0); i < 2*budget; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), on(func(uint64) { fired++ }))
	}
	if got := r.sys.ResidentPages(); got > budget {
		t.Fatalf("committed %d pages at burst time, budget %d", got, budget)
	}
	r.drain()
	s := r.sys.Stats()
	if fired != 2*budget {
		t.Errorf("fired %d waiters, want %d", fired, 2*budget)
	}
	if s.FarFaults != 2*budget {
		t.Errorf("FarFaults = %d, want %d", s.FarFaults, 2*budget)
	}
	if s.PeakResidentPages > budget {
		t.Errorf("peak resident %d exceeds budget %d", s.PeakResidentPages, budget)
	}
	if s.Evictions == 0 {
		t.Error("queued faults admitted without evicting earlier pages")
	}
	checkPagingInvariants(t, r)
}

func TestPagerAdmissionQueueDischargesFreedFaults(t *testing.T) {
	// Free a range while some of its faults still wait in the admission
	// queue: the queued faults must unblock their warps without moving
	// data or leaking budget.
	const budget = 512
	r := newPagedRig(t, GPUMMU4K, budget)
	r.sys.RegisterApp(1)
	if err := r.sys.AllocVirtual(0, 1, 0, (2*budget)*vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := uint64(0); i < 2*budget; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), on(func(uint64) { fired++ }))
	}
	if err := r.sys.FreeVirtual(1, 1, 0, (2*budget)*vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	r.drain()
	if fired != 2*budget {
		t.Errorf("fired %d waiters, want %d (freed queued faults must still unblock)", fired, 2*budget)
	}
	if got := r.sys.ResidentPages(); got != 0 {
		t.Errorf("ResidentPages = %d after free, want 0", got)
	}
}

func TestPagerReleasesBudgetOnFree(t *testing.T) {
	r := newPagedRig(t, GPUMMU4K, 512)
	r.sys.RegisterApp(1)
	if err := r.sys.AllocVirtual(0, 1, 0, 256<<10); err != nil { // 64 pages
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), event.Event{})
	}
	r.drain()
	if got := r.sys.ResidentPages(); got != 64 {
		t.Fatalf("ResidentPages = %d, want 64", got)
	}
	if err := r.sys.FreeVirtual(100, 1, 0, 256<<10); err != nil {
		t.Fatal(err)
	}
	if got := r.sys.ResidentPages(); got != 0 {
		t.Errorf("ResidentPages = %d after free, want 0 (budget released)", got)
	}
	// Freed pages owe no write-back.
	if wb := r.sys.bus.Stats().TotalWriteBacks(); wb != 0 {
		t.Errorf("free of resident pages wrote back %d transfers", wb)
	}
}

// TestPagerUnboundedConfigIsInert checks that a pager without a budget —
// no MaxResidentPages, or the ideal TLB, which is exempt from the bound —
// has no residency policy, and that faulting through it leaves every
// paging-only counter zero and out of the JSON a RunRecord's Manager
// field encodes.
func TestPagerUnboundedConfigIsInert(t *testing.T) {
	for _, pol := range []Policy{Mosaic, IdealTLB} {
		name := pol.String()
		r := newPagedRig(t, pol, 0) // MaxResidentPages unset
		if pol == IdealTLB {
			r = newPagedRig(t, pol, 512)
		}
		if r.sys.pager.res != nil || r.sys.pager.budget != math.MaxUint64 {
			t.Fatalf("%s: pager has a residency policy or budget %d", name, r.sys.pager.budget)
		}
		r.sys.RegisterApp(1)
		if err := r.sys.AllocVirtual(0, 1, 0, 2*vmem.LargePageSize); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 2*vmem.BasePagesPerLarge; i += 3 {
			r.sys.EnsureResident(i, 1, vmem.VirtAddr(i*vmem.BasePageSize), event.Event{})
		}
		r.drain()
		s := r.sys.Stats()
		if s.FarFaults == 0 {
			t.Fatalf("%s: no far-faults issued", name)
		}
		if s.Evictions != 0 || s.Refaults != 0 || s.PeakResidentPages != 0 {
			t.Errorf("%s: paging-only counters moved: %+v", name, s)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"Evictions", "Refaults", "PeakResidentPages"} {
			if strings.Contains(string(b), field) {
				t.Errorf("%s: stats JSON carries %s: %s", name, field, b)
			}
		}
		checkPagerConservation(t, r.sys)
	}
}

// TestUnboundedFreedInFlightFaultsAgain frees a page while its unbounded
// fault is on the bus: the landing must not make the freed page resident,
// so touching it again issues a new transfer.
func TestUnboundedFreedInFlightFaultsAgain(t *testing.T) {
	r := newRig(t, GPUMMU4K, nil)
	r.sys.RegisterApp(1)
	if err := r.sys.AllocVirtual(0, 1, 0, vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	landed := false
	if r.sys.EnsureResident(0, 1, 0, on(func(uint64) { landed = true })) {
		t.Fatal("first touch found the page resident")
	}
	if err := r.sys.FreeVirtual(1, 1, 0, vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	checkPagerConservation(t, r.sys)
	r.drain()
	if !landed {
		t.Fatal("the freed fault's waiter never fired")
	}
	if r.sys.IsResident(1, 0) {
		t.Fatal("a page freed in flight became resident when its transfer landed")
	}
	if err := r.sys.AllocVirtual(2, 1, 0, vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	before := r.sys.Stats().FarFaults
	if r.sys.EnsureResident(3, 1, 0, event.Event{}) {
		t.Fatal("re-touch found the freed page resident")
	}
	if got := r.sys.Stats().FarFaults - before; got != 1 {
		t.Fatalf("re-touch issued %d far-faults, want 1", got)
	}
	r.drain()
	if !r.sys.IsResident(1, 0) {
		t.Fatal("re-touched page did not land")
	}
	checkPagerConservation(t, r.sys)
}

// regionState lists, in key order, the resident units of asid's 2MB
// region at va and checks the table's bookkeeping for that region: every
// occupied slot sits at its key's index, and live counts the slots.
func regionState(t *testing.T, p *pager, asid vmem.ASID, va vmem.VirtAddr) (resident []uint64) {
	t.Helper()
	r := p.regions[regionKey(asid, va.LargePageNumber())]
	if r == nil {
		return nil
	}
	live := 0
	for i, e := range r.slots {
		if e == nil {
			continue
		}
		live++
		if e.key%vmem.BasePagesPerLarge != uint64(i) || e.freed {
			t.Fatalf("slot %d holds key %d (freed %v)", i, e.key, e.freed)
		}
		if e.state == pageResident {
			resident = append(resident, e.key)
		}
	}
	if live != r.live {
		t.Fatalf("region live = %d, occupied slots = %d", r.live, live)
	}
	return resident
}

// evictRegion evicts the pager's current victim, which must lie in the
// region at va, and returns the keys that left residency.
func evictRegion(t *testing.T, sys *System, va vmem.VirtAddr) []uint64 {
	t.Helper()
	p := sys.pager
	before := regionState(t, p, 1, va)
	used, st := p.used, sys.Stats()
	victim := p.res.Victim()
	if victim == nil || victim.va.LargePageBase() != va {
		t.Fatalf("victim %+v not in region %#x", victim, va)
	}
	p.evict(0, victim)
	if left := regionState(t, p, 1, va); len(left) != 0 {
		t.Fatalf("siblings %v still resident after a coalesced-frame eviction", left)
	}
	after := sys.Stats()
	if after.Evictions != st.Evictions+1 {
		t.Fatalf("evictions %d -> %d, want one", st.Evictions, after.Evictions)
	}
	if got := after.EvictedPages - st.EvictedPages; got != uint64(len(before)) {
		t.Fatalf("evicted %d pages, want the %d resident siblings", got, len(before))
	}
	if used < uint64(len(before)) || p.used != used-uint64(len(before)) {
		t.Fatalf("used %d -> %d, want a drop of %d", used, p.used, len(before))
	}
	return before
}

func pageKeys(from, to uint64) []uint64 {
	var ks []uint64
	for k := from; k < to; k++ {
		ks = append(ks, k)
	}
	return ks
}

// TestPagerRegionIndexTracksSiblings checks that a coalesced victim's
// eviction gathers exactly its region's still-resident siblings through
// frees, refaults and a fork: freed pages leave their slots (so they are
// never gathered and the budget never underflows), and an emptied region
// leaves the table.
func TestPagerRegionIndexTracksSiblings(t *testing.T) {
	r := newPagedRig(t, Mosaic, 2*vmem.BasePagesPerLarge)
	sys := r.sys
	sys.RegisterApp(1)
	if err := sys.AllocVirtual(0, 1, 0, vmem.LargePageSize); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < vmem.BasePagesPerLarge; i++ {
		sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), event.Event{})
	}
	r.drain()
	// Free pages 10..19; the region stays coalesced (parked, not splintered).
	if err := sys.FreeVirtual(1, 1, 10*vmem.BasePageSize, 10*vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	if !sys.apps[1].table.IsCoalesced(0) {
		t.Fatal("region splintered; the test needs a coalesced victim")
	}
	for k := uint64(10); k < 20; k++ {
		if sys.pager.entry(1, k) != nil {
			t.Fatalf("freed page %d still in the table", k)
		}
	}
	want := append(pageKeys(0, 10), pageKeys(20, vmem.BasePagesPerLarge)...)
	if got := evictRegion(t, sys, 0); !slices.Equal(got, want) {
		t.Fatalf("first eviction gathered %d keys, want %d (pages 10..19 were freed)", len(got), len(want))
	}
	r.drain()

	// Refault pages 100..149, free 120..124 among them, then fork.
	for k := uint64(100); k < 150; k++ {
		sys.EnsureResident(2, 1, vmem.VirtAddr(k*vmem.BasePageSize), event.Event{})
	}
	r.drain()
	if got := sys.Stats().Refaults; got != 50 {
		t.Fatalf("Refaults = %d, want 50", got)
	}
	if err := sys.FreeVirtual(3, 1, 120*vmem.BasePageSize, 5*vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	nq := &event.Queue{}
	fork := sys.Clone(nq, sys.bus.Clone(nq), sys.mem.Clone(nq))
	for k, reg := range sys.pager.regions {
		freg := fork.pager.regions[k]
		if freg == nil || freg.live != reg.live {
			t.Fatalf("fork region %#x = %+v, want live %d", k, freg, reg.live)
		}
		for i, e := range reg.slots {
			if (e == nil) != (freg.slots[i] == nil) || e != nil && e == freg.slots[i] {
				t.Fatalf("fork slot %d not a copy of the source's", i)
			}
		}
	}

	want = append(pageKeys(100, 120), pageKeys(125, 150)...)
	if got := evictRegion(t, sys, 0); !slices.Equal(got, want) {
		t.Fatalf("second eviction gathered %v, want %v", got, want)
	}
	if got := evictRegion(t, fork, 0); !slices.Equal(got, want) {
		t.Fatalf("fork eviction gathered %v, want %v", got, want)
	}
	r.drain()
	for _, e := range sys.pager.regions[regionKey(1, 0)].slots {
		if e != nil && e.state != pageRemote {
			t.Fatalf("page %d in state %d after its frame drained out", e.key, e.state)
		}
	}
	checkPagingInvariants(t, r)

	// Freeing the rest of the region empties it: the table drops it.
	if err := sys.FreeVirtual(4, 1, 0, vmem.LargePageSize); err != nil {
		t.Fatal(err)
	}
	if len(sys.pager.regions) != 0 || sys.ResidentPages() != 0 {
		t.Fatalf("emptied region kept: %d regions, %d pages used", len(sys.pager.regions), sys.ResidentPages())
	}
}

// TestPagerRegionTableDropsEmptiedRegions covers both fill granularities:
// faulting creates one region per 2MB range and freeing every unit in it
// removes the region.
func TestPagerRegionTableDropsEmptiedRegions(t *testing.T) {
	for _, pol := range []Policy{GPUMMU4K, GPUMMU2M} {
		r := newPagedRig(t, pol, 4*vmem.BasePagesPerLarge)
		r.sys.RegisterApp(1)
		if err := r.sys.AllocVirtual(0, 1, 0, 2*vmem.LargePageSize); err != nil {
			t.Fatal(err)
		}
		for _, va := range []vmem.VirtAddr{0, 5 * vmem.BasePageSize, vmem.LargePageSize} {
			r.sys.EnsureResident(0, 1, va, event.Event{})
		}
		r.drain()
		if n := len(r.sys.pager.regions); n != 2 {
			t.Fatalf("%v: %d regions after faulting two 2MB ranges, want 2", pol, n)
		}
		if err := r.sys.FreeVirtual(1, 1, 0, vmem.LargePageSize); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.sys.pager.regions[regionKey(1, 0)]; ok || len(r.sys.pager.regions) != 1 {
			t.Fatalf("%v: freed region still in the table (%d regions)", pol, len(r.sys.pager.regions))
		}
		if !r.sys.IsResident(1, vmem.LargePageSize) {
			t.Fatalf("%v: the other region lost residency", pol)
		}
	}
}
