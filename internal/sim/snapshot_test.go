package sim_test

// Fork-vs-cold determinism suite: a forked run must be byte-identical —
// at RunRecord granularity, the same representation the metrics fixtures
// pin — to a cold run of the same two-phase (warmup, snapshot, measure)
// plan. The suite covers all four compared policies, unbounded and
// oversubscribed residency, reconfigured and baseline cells, the dealloc
// poll crossing the snapshot, and concurrent forks (meaningful under
// -race, which CI applies to this package).

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// snapWarmup is long enough that every workload below has warmed TLBs,
// page tables, and (oversubscribed) pager state at the snapshot point,
// and comfortably past the first dealloc poll period (0x2000 cycles).
const snapWarmup = 20_000

func mixWorkload(t *testing.T, names ...string) workload.Workload {
	t.Helper()
	specs := make([]workload.Spec, 0, len(names))
	for _, n := range names {
		spec, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return workload.Workload{Name: strings.Join(names, "-"), Apps: specs}
}

// recordBytes renders results exactly as the golden fixtures do, so
// "equal bytes" here means what it means there.
func recordBytes(t *testing.T, r sim.Results) []byte {
	t.Helper()
	b, err := json.MarshalIndent(metrics.NewRunRecord(r), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// coldRun executes the two-phase plan without Snapshot/Fork.
func coldRun(t *testing.T, base, cell config.Config, wl workload.Workload, opt sim.Options) sim.Results {
	t.Helper()
	s, err := sim.New(base, wl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(cell); err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// warmSnapshot builds and freezes a warmup source.
func warmSnapshot(t *testing.T, base config.Config, wl workload.Workload, opt sim.Options) *sim.Snapshot {
	t.Helper()
	s, err := sim.New(base, wl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func forkRun(t *testing.T, snap *sim.Snapshot, cell config.Config) sim.Results {
	t.Helper()
	f := snap.Fork()
	if err := f.Reconfigure(cell); err != nil {
		t.Fatal(err)
	}
	r, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// tlbCell derives a sweep cell from base by shrinking the TLBs and
// bumping latencies — the knobs Reconfigure permits.
func tlbCell(base config.Config) config.Config {
	cell := base
	cell.L1TLBBaseEntries = base.L1TLBBaseEntries / 2
	cell.L2TLBBaseEntries = base.L2TLBBaseEntries / 2
	cell.L2TLBLatency = base.L2TLBLatency + 2
	return cell
}

// TestForkMatchesColdTwoPhase is the tentpole gate: across all four
// policies, unbounded (1x) and oversubscribed (2x) residency, a forked
// run's RunRecord must equal a cold two-phase run's byte for byte.
func TestForkMatchesColdTwoPhase(t *testing.T) {
	policies := []struct {
		p    core.Policy
		slug string
	}{
		{core.GPUMMU4K, "gpummu4k"},
		{core.GPUMMU2M, "gpummu2m"},
		{core.Mosaic, "mosaic"},
		{core.IdealTLB, "ideal"},
	}
	for _, oversub := range []struct {
		ratio float64
		slug  string
	}{
		{0, "1x"}, // unbounded residency
		{2, "2x"}, // footprint is twice the resident budget
	} {
		for _, pol := range policies {
			t.Run(oversub.slug+"-"+pol.slug, func(t *testing.T) {
				base := config.FastTest()
				base.MaxWarpInstructions = 512
				wl := mixWorkload(t, "SWP-S", "SWP-D")
				if oversub.ratio > 0 {
					base.MaxResidentPages = workload.ResidentBudget(base, wl, oversub.ratio)
				}
				cell := tlbCell(base)
				opt := sim.Options{Policy: pol.p, Seed: 21, SnapshotWarmup: snapWarmup}

				cold := coldRun(t, base, cell, wl, opt)
				forked := forkRun(t, warmSnapshot(t, base, wl, opt), cell)

				cb, fb := recordBytes(t, cold), recordBytes(t, forked)
				if !bytes.Equal(cb, fb) {
					t.Errorf("forked RunRecord deviates from cold two-phase run\ncold:\n%s\nforked:\n%s", cb, fb)
				}
				if cold.ConfigDigest != forked.ConfigDigest {
					t.Errorf("digest mismatch: cold %s forked %s", cold.ConfigDigest, forked.ConfigDigest)
				}
			})
		}
	}
}

// TestForkFanOutConcurrent forks one snapshot across several goroutines
// — the sweep engine's actual usage — with distinct cells, and checks
// each against its own cold run. Run under -race this also proves forks
// share no mutable state with the source or each other.
func TestForkFanOutConcurrent(t *testing.T) {
	base := config.FastTest()
	base.MaxWarpInstructions = 256
	wl := mixWorkload(t, "HS", "CONS")
	opt := sim.Options{Policy: core.Mosaic, Seed: 7, SnapshotWarmup: snapWarmup}

	cells := []config.Config{
		base, // baseline cell: forked runs still Reconfigure for digest parity
		tlbCell(base),
	}
	{
		c := base
		c.L1TLBLargeEntries = base.L1TLBLargeEntries / 2
		c.L1TLBLatency = base.L1TLBLatency + 1
		cells = append(cells, c)
	}

	snap := warmSnapshot(t, base, wl, opt)
	forked := make([]sim.Results, len(cells))
	var wg sync.WaitGroup
	for i, cell := range cells {
		wg.Add(1)
		go func(i int, cell config.Config) {
			defer wg.Done()
			f := snap.Fork()
			if err := f.Reconfigure(cell); err != nil {
				t.Error(err)
				return
			}
			r, err := f.Run()
			if err != nil {
				t.Error(err)
				return
			}
			forked[i] = r
		}(i, cell)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, cell := range cells {
		cold := coldRun(t, base, cell, wl, opt)
		cb, fb := recordBytes(t, cold), recordBytes(t, forked[i])
		if !bytes.Equal(cb, fb) {
			t.Errorf("cell %d: forked RunRecord deviates from cold run", i)
		}
	}
}

// TestForkWithDeallocPoll crosses the snapshot point with the
// self-re-arming dealloc poll pending, so the poll travels to the fork
// in its copy of the event queue.
func TestForkWithDeallocPoll(t *testing.T) {
	base := config.FastTest()
	base.MaxWarpInstructions = 512
	wl := mixWorkload(t, "LPS")
	cell := tlbCell(base)
	opt := sim.Options{Policy: core.Mosaic, Seed: 9, SnapshotWarmup: snapWarmup, DeallocFraction: 0.9}

	cold := coldRun(t, base, cell, wl, opt)
	forked := forkRun(t, warmSnapshot(t, base, wl, opt), cell)
	if cb, fb := recordBytes(t, cold), recordBytes(t, forked); !bytes.Equal(cb, fb) {
		t.Errorf("forked RunRecord deviates from cold run with dealloc poll pending\ncold:\n%s\nforked:\n%s", cb, fb)
	}
	if cold.Manager.Splinters == 0 && cold.Manager.Compactions == 0 && cold.Manager.EmergencyAdds == 0 {
		t.Error("dealloc never exercised CAC — test not covering the poll path")
	}
}

// TestWarmupDigestSemantics pins the digest rules: SnapshotWarmup
// participates (a two-phase run is a distinct experiment), zero leaves
// the pre-existing digest untouched, and Reconfigure chains the cell
// digest identically however many times the plan is replayed. The
// literals were recorded when two-phase plans still drained the engine
// before the snapshot: plain digests must keep theirs, and the current
// two-phase plan must not collide with the drained one, so no stored
// result of the old plan is ever served for the new one.
func TestWarmupDigestSemantics(t *testing.T) {
	const (
		plainBefore   = "c142af6d2536792a"
		drainedBefore = "7e9599fb8351ae6d"
	)
	cfg := config.FastTest()
	plain := sim.Digest(cfg, sim.Options{Policy: core.Mosaic, Seed: 1})
	warm := sim.Digest(cfg, sim.Options{Policy: core.Mosaic, Seed: 1, SnapshotWarmup: snapWarmup})
	if plain == warm {
		t.Error("SnapshotWarmup did not change the digest")
	}
	if again := sim.Digest(cfg, sim.Options{Policy: core.Mosaic, Seed: 1}); again != plain {
		t.Error("zero SnapshotWarmup perturbed the digest")
	}
	if plain != plainBefore {
		t.Errorf("plain digest = %s, want the recorded %s", plain, plainBefore)
	}
	if warm == drainedBefore {
		t.Errorf("two-phase digest %s still equals the drained plan's", warm)
	}
}

// TestSnapshotAPIErrors pins the misuse guards: snapshotting before
// warmup, running a frozen source, and reconfiguring a non-TLB knob.
func TestSnapshotAPIErrors(t *testing.T) {
	base := config.FastTest()
	base.MaxWarpInstructions = 128
	wl := mixWorkload(t, "HS")
	opt := sim.Options{Policy: core.Mosaic, Seed: 3, SnapshotWarmup: snapWarmup}

	s, err := sim.New(base, wl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("Snapshot before RunWarmup accepted")
	}
	if err := s.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.WalkerConcurrency = base.WalkerConcurrency + 1
	if !sim.CanReconfigure(base, tlbCell(base)) {
		t.Error("TLB-only cell rejected by CanReconfigure")
	}
	if sim.CanReconfigure(base, bad) {
		t.Error("non-TLB cell accepted by CanReconfigure")
	}
	if err := s.Reconfigure(bad); err == nil {
		t.Error("Reconfigure accepted a non-TLB change")
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("Run on a frozen simulator accepted")
	}
	if err := s.Reconfigure(tlbCell(base)); err == nil {
		t.Error("Reconfigure on a frozen simulator accepted")
	}
	f := snap.Fork()
	if _, err := f.Run(); err != nil {
		t.Errorf("forked run failed: %v", err)
	}
}
