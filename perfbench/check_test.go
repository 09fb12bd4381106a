package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/vmem"
)

// referencePass builds a pass that delivered the committed translate
// reference, as a plain pass at seed 42 would.
func referencePass(t *testing.T, perturb func(*metrics.RunRecord)) (pass, []byte) {
	t.Helper()
	ref, err := os.ReadFile(filepath.Join("testdata", "translate-ref.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := metrics.ReadReport(bytes.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	recs := append([]metrics.RunRecord(nil), rep.Figures[0].Runs...)
	if perturb != nil {
		perturb(&recs[len(recs)-1])
	}
	rep.Figures[0].Runs = recs
	b, err := encodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return pass{recs: recs, reports: [][]byte{b}}, ref
}

func TestTallyAcceptsTheReference(t *testing.T) {
	p, ref := referencePass(t, nil)
	attempted, failed, msgs := tally([]pass{p, p}, ref, nil, 0)
	if attempted != 4 || failed != 0 {
		t.Fatalf("attempted %d failed %d (%v), want 4 attempted, 0 failed", attempted, failed, msgs)
	}
}

// A record that differs from the reference in one simulated counter fails
// its report's cells, and a pass whose work differs from the first pass's
// fails too, with or without a reference.
func TestTallyCountsAPerturbedRecord(t *testing.T) {
	good, ref := referencePass(t, nil)
	bad, _ := referencePass(t, func(r *metrics.RunRecord) { r.DRAM.Accesses++ })

	attempted, failed, _ := tally([]pass{good, bad}, ref, nil, 0)
	if failed == 0 || float64(failed)/float64(attempted) <= 0 {
		t.Fatalf("perturbed record not counted: attempted %d failed %d", attempted, failed)
	}

	// Without a reference the first pass is the reference.
	attempted, failed, _ = tally([]pass{good, bad}, nil, nil, 0)
	if failed != 2 || attempted != 4 {
		t.Fatalf("no-reference seed: attempted %d failed %d, want 4 attempted, 2 failed", attempted, failed)
	}
}

func TestTallyCountsFailedChecks(t *testing.T) {
	p, ref := referencePass(t, nil)
	p.checks, p.failedChecks, p.failures = 3, 1, []string{"warm phase: 1 new run"}
	attempted, failed, _ := tally([]pass{p}, ref, []string{"forked sweep differs"}, 1)
	if attempted != 2+3+1 || failed != 2 {
		t.Fatalf("attempted %d failed %d, want 6 attempted, 2 failed", attempted, failed)
	}
}

func TestModuleAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/tlb.(*TLB).Lookup":                "tlb",
		"repro/internal/policies/fifoevict.(*fifo).Clone": "policies",
		"repro/internal/sim.(*Simulator).Run.func1":       "sim",
		"repro.Run":        "",
		"runtime.mallocgc": "",
		"main.main":        "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if !isSnapshotFunc("repro/internal/sim.(*Simulator).quiesce.func2") || isSnapshotFunc("repro/internal/sim.(*Simulator).Run") {
		t.Error("snapshot frame matching is wrong")
	}
}

// The decoder reads a real runtime/pprof CPU profile, charges every
// sample, and finds the module the profiled loop spends its time in.
func TestAttributionOfARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	c := cache.MustNew("L2", 1<<20, 128, 16)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		for a := vmem.PhysAddr(0); a < 1<<24; a += 128 {
			if !c.Lookup(a) {
				c.Fill(a)
			}
		}
	}
	pprof.StopCPUProfile()

	a := newAttribution()
	if err := a.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if a.totalNS == 0 {
		t.Skip("profile has no samples")
	}
	if err := a.checkSum(); err != nil {
		t.Fatal(err)
	}
	if a.frac("cache") < 0.2 {
		t.Fatalf("cache share %.3f of a loop inside the cache; modules %v", a.frac("cache"), a.selfNS)
	}
}
