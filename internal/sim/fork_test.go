package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// midFlightWarmup is a snapshot cycle at which the runs below have DRAM
// requests queued, walks in progress, and page transfers on the I/O bus — TestForkMidFlightSnapshot checks that they do. Mosaic
// walks almost only while its TLBs are cold, so the cut sits early.
const midFlightWarmup = 1000

// TestForkMidFlightSnapshot snapshots a run with work in flight in every
// layer, forks it twice in sequence, and requires both forked results to
// equal each other and the cold two-phase run's byte for byte. The
// second fork runs after the first has finished, so a DRAM queue, MSHR
// waiter list, walker slot, or pager queue shared between copies shows up
// as a divergence even without the race detector.
func TestForkMidFlightSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pol     core.Policy
		oversub float64 // 0: unbounded residency, no evictions or write-backs
	}{
		{"GPU-MMU", core.GPUMMU4K, 2},
		{"Mosaic", core.Mosaic, 2},
		{"Mosaic-unbounded", core.Mosaic, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := config.FastTest()
			base.MaxWarpInstructions = 512
			var specs []workload.Spec
			for _, n := range []string{"SWP-S", "SWP-D"} {
				spec, err := workload.ByName(n)
				if err != nil {
					t.Fatal(err)
				}
				specs = append(specs, spec)
			}
			wl := workload.Workload{Name: "SWP-S-SWP-D", Apps: specs}
			base.MaxResidentPages = workload.ResidentBudget(base, wl, tc.oversub)
			cell := base
			cell.L1TLBBaseEntries /= 2
			cell.L2TLBLatency++
			opt := Options{Policy: tc.pol, Seed: 21, SnapshotWarmup: midFlightWarmup}

			run := func(s *Simulator) []byte {
				t.Helper()
				if err := s.Reconfigure(cell); err != nil {
					t.Fatal(err)
				}
				r, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.MarshalIndent(r, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			warm := func() *Simulator {
				t.Helper()
				s, err := New(base, wl, opt)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.RunWarmup(); err != nil {
					t.Fatal(err)
				}
				return s
			}

			src := warm()
			if src.mem.PendingRequests() == 0 && src.l2c.InFlight() == 0 {
				t.Error("snapshot point has no DRAM request queued and no L2 miss outstanding")
			}
			if src.walker.Active() == 0 {
				t.Error("snapshot point has no page walk in progress")
			}
			if src.bus.BusyUntil() <= src.cycle {
				t.Error("snapshot point has no page transfer or write-back on the I/O bus")
			}
			snap, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			first := run(snap.Fork())
			second := run(snap.Fork())
			cold := run(warm())
			if !bytes.Equal(first, second) {
				t.Errorf("second fork deviates from the first\nfirst:\n%s\nsecond:\n%s", first, second)
			}
			if !bytes.Equal(first, cold) {
				t.Errorf("forked RunRecord deviates from cold two-phase run\ncold:\n%s\nforked:\n%s", cold, first)
			}
		})
	}
}
