package metrics

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
)

// syntheticResults builds n distinct plausible results; the counters
// vary per result so any cross-record smearing would change the JSON.
func syntheticResults(n int) []sim.Results {
	out := make([]sim.Results, n)
	for i := range out {
		r := sim.Results{
			Workload:      fmt.Sprintf("W%d", i/4),
			Policy:        fmt.Sprintf("P%d", i%4),
			ConfigDigest:  fmt.Sprintf("%016x", 0x9e3779b97f4a7c15*uint64(i+1)),
			Cycles:        uint64(1000 + 17*i),
			L1TLBRequests: uint64(100 + i), L1TLBHits: uint64(90 + i),
			L2TLBRequests: uint64(50 + i), L2TLBHits: uint64(40 + i),
			TranslationFaults: uint64(i % 3),
		}
		r.Apps = []sim.AppResult{{
			Name:         fmt.Sprintf("APP%d", i),
			IPC:          0.5 + float64(i)/16,
			Instructions: uint64(10000 * (i + 1)),
			FinishCycle:  r.Cycles,
			Completed:    true,
		}}
		out[i] = r
	}
	return out
}

// TestCollectorConcurrentAddCanonical pins the Collector's concurrency
// contract (run under -race in CI): many goroutines adding the same
// multiset of results in different orders must yield byte-identical
// JSON to a sequential collector — the canonical sort makes the output
// independent of interleaving, and duplicate runs merge into Count.
func TestCollectorConcurrentAddCanonical(t *testing.T) {
	results := syntheticResults(24)
	const goroutines = 8

	// Sequential baseline: every goroutine's multiset, in order.
	seq := NewCollector()
	for g := 0; g < goroutines; g++ {
		for _, r := range results {
			seq.Add(r)
		}
	}
	want, err := json.Marshal(seq.Records())
	if err != nil {
		t.Fatal(err)
	}

	conc := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the results rotated (and for odd
			// goroutines reversed), so insertion orders genuinely
			// differ while every goroutine adds the exact same set.
			for k := 0; k < len(results); k++ {
				idx := (k + 7*g) % len(results)
				if g%2 == 1 {
					idx = len(results) - 1 - idx
				}
				conc.Add(results[idx])
			}
		}(g)
	}
	wg.Wait()

	if conc.Len() != len(results) {
		t.Fatalf("%d distinct records, want %d", conc.Len(), len(results))
	}
	got, err := json.Marshal(conc.Records())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("concurrent Add produced different canonical JSON than sequential Add")
	}
	for _, rec := range conc.Records() {
		if rec.Count != goroutines {
			t.Fatalf("record %s/%s Count %d, want %d", rec.Workload, rec.Policy, rec.Count, goroutines)
		}
	}
}

// TestCollectorConcurrentSetWeightedSpeedup exercises Add racing with
// SetWeightedSpeedup, the shape mosaic-bench's figure pipelines use.
func TestCollectorConcurrentSetWeightedSpeedup(t *testing.T) {
	results := syntheticResults(16)
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range results {
				c.Add(r)
				c.SetWeightedSpeedup(r.Workload, r.Policy, r.ConfigDigest, 1.5)
			}
		}()
	}
	wg.Wait()
	for _, rec := range c.Records() {
		if rec.WeightedSpeedup != 1.5 {
			t.Fatalf("record %s/%s weighted speedup %g", rec.Workload, rec.Policy, rec.WeightedSpeedup)
		}
	}
}
