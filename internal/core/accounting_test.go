package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/vmem"
)

func TestLiveBytesTracking(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	if r.sys.LiveBytes(1) != 0 {
		t.Error("fresh app has live bytes")
	}
	r.sys.AllocVirtual(0, 1, 0, 3<<20)
	if got := r.sys.LiveBytes(1); got != 3<<20 {
		t.Errorf("LiveBytes = %d, want 3MiB", got)
	}
	r.sys.FreeVirtual(0, 1, 0, 1<<20)
	if got := r.sys.LiveBytes(1); got != 2<<20 {
		t.Errorf("LiveBytes after partial free = %d, want 2MiB", got)
	}
	// Unknown app reads as zero.
	if r.sys.LiveBytes(99) != 0 {
		t.Error("unknown app has live bytes")
	}
}

func TestFootprintCountsOwnedFramesWhole(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	// A 64KB allocation claims one whole large frame under the soft
	// guarantee: footprint = 2MB, live = 64KB.
	r.sys.AllocVirtual(0, 1, 0, 64<<10)
	if got := r.sys.FootprintBytes(1); got != vmem.LargePageSize {
		t.Errorf("FootprintBytes = %d, want one large frame", got)
	}
	if b := r.sys.BloatPct(1); b < 1000 {
		t.Errorf("BloatPct = %.1f, want ~3100%% for 64KB in a 2MB frame", b)
	}
}

func TestBloatZeroWhenNothingLive(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	if r.sys.BloatPct(1) != 0 {
		t.Error("bloat nonzero with no allocations")
	}
	r.sys.AllocVirtual(0, 1, 0, 2<<20)
	r.sys.FreeVirtual(0, 1, 0, 2<<20)
	if r.sys.BloatPct(1) != 0 {
		t.Errorf("bloat = %.2f after freeing everything", r.sys.BloatPct(1))
	}
}

func TestBaselineFootprintIsPageGranular(t *testing.T) {
	r := newRig(t, GPUMMU4K, nil)
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 64<<10)
	// The baseline shares frames between apps, so footprint counts pages.
	if got := r.sys.FootprintBytes(1); got != 64<<10 {
		t.Errorf("baseline FootprintBytes = %d, want 64KiB", got)
	}
	if b := r.sys.BloatPct(1); b != 0 {
		t.Errorf("baseline bloat = %.2f, want 0", b)
	}
}

func TestEnsureResidentUnknownApp(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	// Unknown apps are treated as resident (no crash, no transfer).
	if !r.sys.EnsureResident(0, 42, 0, event.Event{}) {
		t.Error("unknown app triggered a fault")
	}
}

func TestAllocZeroSizeIsNoOp(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	if err := r.sys.AllocVirtual(0, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if r.sys.LiveBytes(1) != 0 || r.sys.Pool().AllocatedBasePages() != 0 {
		t.Error("zero-size alloc changed state")
	}
	if err := r.sys.FreeVirtual(0, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFreeUnmappedRangeIsIdempotent(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 1<<20)
	if err := r.sys.FreeVirtual(0, 1, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	// Freeing again must not error (pages already gone) nor corrupt state.
	if err := r.sys.FreeVirtual(0, 1, 0, 1<<20); err != nil {
		t.Fatalf("double free errored: %v", err)
	}
	if r.sys.Pool().AllocatedBasePages() != 0 {
		t.Error("pool pages leaked across double free")
	}
}

func TestStallAccumulation(t *testing.T) {
	r := newRig(t, Mosaic, func(_ *config.Config, o *Options) { o.Coalesce = CoalesceMigrate })
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(100, 1, 0, 2<<20)
	s1 := r.sys.StallUntil()
	if s1 <= 100 {
		t.Fatalf("no stall from migrating coalescer: %d", s1)
	}
	// A second coalesce extends, never rewinds, the stall.
	r.sys.AllocVirtual(s1, 1, vmem.VirtAddr(8<<21), 2<<20)
	if s2 := r.sys.StallUntil(); s2 < s1 {
		t.Errorf("stall rewound: %d -> %d", s1, s2)
	}
	if r.sys.Stats().StallCycles == 0 {
		t.Error("StallCycles not accumulated")
	}
}
