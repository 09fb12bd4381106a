// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed host-time window, checks every output against a
// reference, and prints each metric by name with its unit; the last line
// of standard output is one JSON object with the result.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload translate --seed 42 --seconds 15 --trace 0
//
// Workloads: translate, oversub, tlbsweep-fork, campaign (see README.md
// for why each exists and which metric each layer metric should move).
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and CPU-profiled passes and reports the per-layer
// ledger instead. Simulated numbers are deterministic; what is measured is
// host time.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// A run sets its workload up at least minSetups times and then again until
// setupBudget is spent (at most maxSetups times); setup_s is the median.
// Cheap set-ups thus get enough repeats for a steady median.
const (
	minSetups   = 5
	maxSetups   = 100
	setupBudget = 500 * time.Millisecond
)

// minPasses is the fewest passes a run makes, so that every run can
// compare repeated passes even when one pass outlasts the window.
const minPasses = 2

var workloads = map[string]func(seed int64) (runner, error){
	"translate":     newTranslate,
	"oversub":       newOversub,
	"tlbsweep-fork": newSweep,
	"campaign":      newCampaign,
}

// simModules are the modules whose CPU share is also reported per
// simulated instruction.
var simModules = []string{"tlb", "walker", "pagetable", "cache", "dram", "event", "workload", "sim", "core", "alloc", "iobus", "runtime"}

// ledgerModules are the modules reported by name; the rest of the CPU
// samples are reported together as other.self_frac.
var ledgerModules = append(append([]string{}, simModules...), "harness", "server", "coordinator")

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: translate | oversub | tlbsweep-fork | campaign")
		seed    = flag.Int64("seed", goldenSeed, "workload seed; 42 is checked against the committed references")
		seconds = flag.Float64("seconds", 10, "host seconds of measured passes")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with the per-layer ledger")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload translate|oversub|tlbsweep-fork|campaign --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	for _, p := range []string{"go.mod", filepath.Join("testdata", "golden"), filepath.Join("perfbench", "testdata")} {
		if _, err := os.Stat(p); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
			os.Exit(2)
		}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	res, err := run(*name, mk, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result is everything one run reports.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Host     host   `json:"host"`
	Work     work   `json:"work"`
	Passes   int    `json:"passes"`
	// PassSeconds is each pass's measured host time.
	PassSeconds []float64         `json:"pass_seconds"`
	Reference   string            `json:"reference"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	// Diagnostics are printed with the metrics but are not part of the
	// final line: tails, sample counts, the other mode's metrics.
	Diagnostics map[string]metric  `json:"diagnostics"`
	Spans       []spanTotal        `json:"spans,omitempty"`
	SpanLog     []span             `json:"span_log,omitempty"`
	Modules     map[string]float64 `json:"modules,omitempty"`
}

func run(name string, mk func(int64) (runner, error), seed int64, window time.Duration, traced bool) (*result, error) {
	res := &result{Workload: name, Seed: seed, Traced: traced, Host: hostInfo(),
		Metrics: map[string]metric{}, Diagnostics: map[string]metric{}}

	var r runner
	var setupS []float64
	setupStart := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(setupStart) < setupBudget); i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		r, err = mk(seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer r.close()

	var passes, tracedPasses, plainPasses []pass
	tr := newTracer()
	attr := newAttribution()
	var rtBefore, rtAfter runtimeCounters
	var rtAlloc uint64
	var rtGC, rtBusy float64
	// After minPasses, passes continue while the next one is expected to
	// end less than half a pass past the window, so a run measures close to
	// the window.
	start := time.Now()
	more := func(done int) bool {
		if done < minPasses {
			return true
		}
		elapsed := time.Since(start)
		return elapsed+elapsed/time.Duration(2*done) < window
	}
	for i := 0; more(i); i++ {
		profiled := traced && i%2 == 1
		if !profiled {
			p, err := r.pass(nil)
			if err != nil {
				return nil, err
			}
			passes = append(passes, p)
			plainPasses = append(plainPasses, p)
			continue
		}
		var buf bytes.Buffer
		rtBefore = readRuntimeCounters()
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		p, err := r.pass(tr)
		pprof.StopCPUProfile()
		rtAfter = readRuntimeCounters()
		if err != nil {
			return nil, err
		}
		if err := attr.add(buf.Bytes()); err != nil {
			return nil, err
		}
		rtAlloc += rtAfter.allocBytes - rtBefore.allocBytes
		rtGC += rtAfter.gcCPU - rtBefore.gcCPU
		rtBusy += rtAfter.busyCPU - rtBefore.busyCPU
		passes = append(passes, p)
		tracedPasses = append(tracedPasses, p)
	}
	peakRSS := peakRSSMB()

	ref, refSource, err := r.reference()
	if err != nil {
		return nil, err
	}
	res.Reference = refSource
	if ref == nil {
		res.Reference = "repeated passes (no reference for this seed)"
	}
	vFail, vChecks := r.verify(passes[0])
	res.Attempted, res.Failed, res.Failures = tally(passes, ref, vFail, vChecks)
	res.Work = workOf(passes[0].recs)
	res.Passes = len(passes)
	for _, p := range passes {
		res.PassSeconds = append(res.PassSeconds, p.wall.Seconds())
	}

	e2e := endToEnd(passes, setupS, peakRSS)
	if !traced {
		res.Metrics = e2e
	} else {
		if err := attr.checkSum(); err != nil {
			return nil, err
		}
		res.Metrics = perLayer(tracedPasses, plainPasses, attr, rtAlloc, rtGC, rtBusy)
		res.Spans, res.SpanLog = tr.totals(), tr.log()
		res.Modules = map[string]float64{}
		for m := range attr.selfNS {
			res.Modules[m] = attr.frac(m)
		}
		for k, v := range e2e {
			res.Diagnostics["traced_run."+k] = v
		}
	}
	for k, v := range diagnostics(passes) {
		res.Diagnostics[k] = v
	}
	res.Diagnostics["failed_frac"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "fraction"}
	if err := res.save(); err != nil {
		return nil, err
	}
	return res, nil
}

// tally checks every pass's reports against ref (or, without one, against
// the first pass), requires every pass to repeat the first pass's work
// counts, and counts operations: every delivered cell is one, and so is
// every accounting or verification check. A mismatching report fails all
// of its cells.
func tally(passes []pass, ref []byte, vFail []string, vChecks int) (attempted, failed int, msgs []string) {
	if ref == nil && len(passes) > 0 && len(passes[0].reports) > 0 {
		ref = passes[0].reports[0]
	}
	var w0 work
	if len(passes) > 0 {
		w0 = workOf(passes[0].recs)
	}
	for i, p := range passes {
		cells := len(p.recs)
		bad := 0
		for j, rep := range p.reports {
			attempted += cells
			if !bytes.Equal(rep, ref) {
				bad++
				msgs = append(msgs, fmt.Sprintf("pass %d report %d differs from the reference: %s", i, j, diffSummary(rep, ref)))
			}
		}
		if w := workOf(p.recs); w != w0 {
			bad = max(bad, 1)
			msgs = append(msgs, fmt.Sprintf("pass %d work %+v differs from pass 0 %+v", i, w, w0))
		}
		failed += bad * cells
		attempted += p.checks
		failed += p.failedChecks
		msgs = append(msgs, p.failures...)
	}
	attempted += vChecks
	failed += len(vFail)
	msgs = append(msgs, vFail...)
	return attempted, min(failed, attempted), msgs
}

// diffSummary names the first differences between two encoded reports.
func diffSummary(got, want []byte) string {
	a, errA := metrics.ReadReport(bytes.NewReader(got))
	b, errB := metrics.ReadReport(bytes.NewReader(want))
	if errA != nil || errB != nil {
		return fmt.Sprintf("unreadable report (%v, %v)", errA, errB)
	}
	d := metrics.DiffReports(a, b, metrics.DiffOptions{})
	if len(d) == 0 {
		return "same values, different bytes"
	}
	return strings.Join(d[:min(len(d), 3)], "; ")
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return safeDiv(s, float64(len(xs)))
}

func instructions(p pass) uint64 { return workOf(p.recs).Instructions }

// endToEnd computes the metrics a user sees, each the median over passes
// (set-up: over set-ups). Latency is each pass's mean over its cells, not a
// median, because the samples are lumpy: cells differ widely in cost, and
// campaign results arrive on a jittered poll schedule whose steps are as
// long as a cell, so a median jumps between lumps from run to run. The
// median and tail over all cells are printed beside it.
func endToEnd(passes []pass, setupS []float64, peakRSS float64) map[string]metric {
	var ips, cps, lat []float64
	for _, p := range passes {
		ips = append(ips, float64(instructions(p))/p.simWall.Seconds())
		cps = append(cps, float64(len(p.recs))/p.wall.Seconds())
		lat = append(lat, mean(p.latS))
	}
	return map[string]metric{
		"setup_s":                  {median(setupS), "s"},
		"sim_instr_per_s":          {median(ips), "1/s"},
		"cells_per_s":              {median(cps), "1/s"},
		"cold_cell_latency_mean_s": {median(lat), "s"},
		"peak_rss_mb":              {peakRSS, "MB"},
	}
}

// diagnostics are the tails and sample counts printed beside the medians.
func diagnostics(passes []pass) map[string]metric {
	d := map[string]metric{}
	addLatency := func(name string, xs []float64, unit string) {
		if len(xs) == 0 {
			return
		}
		label, v := tail(xs)
		d[name+"_p50"] = metric{median(xs), unit}
		d[name+"_"+label] = metric{v, unit}
		d[name+"_samples"] = metric{float64(len(xs)), "count"}
	}
	var lat, warm, hot []float64
	for _, p := range passes {
		lat = append(lat, p.latS...)
		if p.campaign != nil {
			warm = append(warm, scale(p.campaign["warm"].latS, 1000)...)
			hot = append(hot, scale(p.campaign["hot"].latS, 1000)...)
		}
	}
	addLatency("cold_cell_latency", lat, "s")
	addLatency("warm_cell_latency", warm, "ms")
	addLatency("hot_cell_latency", hot, "ms")
	return d
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// perLayer computes the ledger of the traced passes: each module's share
// of CPU samples (and, for simulator modules, CPU ns per simulated
// instruction), the deterministic work of each modelled component, and
// the service-path timings and counters.
func perLayer(traced, plain []pass, attr *attribution, allocBytes uint64, gcCPU, busyCPU float64) map[string]metric {
	m := map[string]metric{}
	var instr uint64
	for _, p := range traced {
		instr += instructions(p)
	}
	listed := 0.0
	for _, mod := range ledgerModules {
		f := attr.frac(mod)
		listed += f
		m[mod+".self_frac"] = metric{f, "fraction"}
	}
	m["other.self_frac"] = metric{max(0, 1-listed), "fraction"}
	for _, mod := range simModules {
		m[mod+".ns_per_instr"] = metric{safeDiv(float64(attr.selfNS[mod]), float64(instr)), "ns"}
	}
	m["sim.snapshot_frac"] = metric{safeDiv(float64(attr.snapshotNS), float64(attr.totalNS)), "fraction"}
	m["runtime.alloc_bytes_per_instr"] = metric{safeDiv(float64(allocBytes), float64(instr)), "B"}
	m["runtime.gc_cpu_frac"] = metric{safeDiv(gcCPU, busyCPU), "fraction"}

	// Modelled components: one pass's deterministic counts.
	recs := traced[0].recs
	var l1Lookups, walks, coalesced, walkLat, dramAcc, rowHits, dramBusy uint64
	var farFaults, evictions, refaults, coalesces, attempts, transfers, writeBacks, queueDelay, cycles uint64
	var l1Rate, l2Rate float64
	for _, r := range recs {
		l1 := r.L1TLB
		l1Lookups += l1.BaseHits + l1.BaseMisses + l1.LargeHits + l1.LargeMisses
		l1Rate += r.L1TLBHitRate / float64(len(recs))
		l2Rate += r.L2TLBHitRate / float64(len(recs))
		walks += r.Walker.Walks
		coalesced += r.Walker.Coalesced
		walkLat += r.Walker.TotalLatency
		dramAcc += r.DRAM.Accesses
		rowHits += r.DRAM.RowHits
		dramBusy += r.DRAM.BusyCycles
		farFaults += r.Manager.FarFaults
		evictions += r.Manager.Evictions
		refaults += r.Manager.Refaults
		coalesces += r.Manager.Coalesces
		attempts += r.Manager.CoalesceAttempts
		transfers += r.Bus.TotalTransfers()
		writeBacks += r.Bus.TotalWriteBacks()
		queueDelay += r.Bus.TotalQueueDelay
		cycles += r.Cycles
	}
	count := func(name string, v uint64) { m[name] = metric{float64(v), "count"} }
	count("tlb.l1_lookups", l1Lookups)
	m["tlb.l1_hit_rate"] = metric{l1Rate, "fraction"}
	m["tlb.l2_hit_rate"] = metric{l2Rate, "fraction"}
	count("walker.walks", walks)
	m["walker.coalesced_frac"] = metric{safeDiv(float64(coalesced), float64(walks+coalesced)), "fraction"}
	m["walker.avg_latency_cycles"] = metric{safeDiv(float64(walkLat), float64(walks)), "cycles"}
	count("dram.accesses", dramAcc)
	m["dram.row_hit_rate"] = metric{safeDiv(float64(rowHits), float64(dramAcc)), "fraction"}
	m["dram.busy_cycles"] = metric{float64(dramBusy), "cycles"}
	m["sim.cycles"] = metric{float64(cycles), "cycles"}
	count("sim.instructions", instructions(traced[0]))
	count("core.far_faults", farFaults)
	count("core.evictions", evictions)
	count("core.refaults", refaults)
	m["core.coalesce_success_frac"] = metric{safeDiv(float64(coalesces), float64(attempts)), "fraction"}
	count("iobus.transfers", transfers)
	count("iobus.write_backs", writeBacks)
	m["iobus.queue_delay_cycles"] = metric{float64(queueDelay), "cycles"}

	// Service path (campaign only; zero elsewhere).
	var getMS, putMS, slack, enc, polls, warm, hot []float64
	var gets, hits int
	var runs, serves, cacheHits, requeues float64
	for i, p := range traced {
		enc = append(enc, p.encodeMS...)
		if p.campaign == nil {
			continue
		}
		for _, name := range phaseNames {
			ph := p.campaign[name]
			gets += len(ph.getMS)
			hits += ph.getHits
			if i == 0 {
				runs += ph.runsCompleted
				serves += ph.storeServes
				cacheHits += ph.cacheHits
				requeues += ph.requeues
			}
		}
		ph := p.campaign
		getMS = append(getMS, ph["warm"].getMS...)
		putMS = append(putMS, ph["cold"].putMS...)
		slack = append(slack, ph["cold"].slackMS...)
		polls = append(polls, safeDiv(float64(ph["cold"].polls), float64(len(ph["cold"].recs))))
		warm = append(warm, scale(ph["warm"].latS, 1000)...)
		hot = append(hot, scale(ph["hot"].latS, 1000)...)
	}
	m["store.get_ms_p50"] = metric{median(getMS), "ms"}
	m["store.put_ms_p50"] = metric{median(putMS), "ms"}
	m["store.hit_frac"] = metric{safeDiv(float64(hits), float64(gets)), "fraction"}
	m["server.runs_completed"] = metric{runs, "count"}
	m["server.store_serves"] = metric{serves, "count"}
	m["server.cache_hits"] = metric{cacheHits, "count"}
	m["metrics.encode_ms"] = metric{median(enc), "ms"}
	m["serviceclient.polls_per_cell"] = metric{median(polls), "count"}
	m["serviceclient.notify_slack_ms_p50"] = metric{median(slack), "ms"}
	m["coordinator.requeues"] = metric{requeues, "count"}
	m["campaign.warm_cell_latency_p50_ms"] = metric{median(warm), "ms"}
	m["campaign.hot_cell_latency_p50_ms"] = metric{median(hot), "ms"}

	// Tracing overhead: traced pass host time against untraced.
	var tw, pw []float64
	for _, p := range traced {
		tw = append(tw, p.wall.Seconds())
	}
	for _, p := range plain {
		pw = append(pw, p.wall.Seconds())
	}
	m["bench.trace_overhead_frac"] = metric{safeDiv(median(tw), median(pw)) - 1, "fraction"}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// save writes the full result, spans included, under .bench_build.
func (res *result) save() error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	mode := "trace0"
	if res.Traced {
		mode = "trace1"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", res.Workload, res.Seed, mode)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func (res *result) print(w io.Writer) {
	hb, _ := json.Marshal(res.Host)
	wb, _ := json.Marshal(res.Work)
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  passes %d  pass seconds %.3f\n", res.Workload, res.Seed, res.Traced, res.Passes, res.PassSeconds)
	fmt.Fprintf(w, "host %s\n", hb)
	fmt.Fprintf(w, "work per pass %s\n", wb)
	fmt.Fprintf(w, "reference: %s\n", res.Reference)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	printMetrics := func(title string, ms map[string]metric) {
		fmt.Fprintln(w, title)
		names := make([]string, 0, len(ms))
		for k := range ms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-44s %16.6g %s\n", k, ms[k].Value, ms[k].Unit)
		}
	}
	printMetrics("metrics:", res.Metrics)
	printMetrics("diagnostics:", res.Diagnostics)
	if len(res.Modules) > 0 {
		mods := make([]string, 0, len(res.Modules))
		for k := range res.Modules {
			mods = append(mods, k)
		}
		sort.Slice(mods, func(i, j int) bool { return res.Modules[mods[i]] > res.Modules[mods[j]] })
		var parts []string
		for _, k := range mods {
			parts = append(parts, fmt.Sprintf("%s %.3f", k, res.Modules[k]))
		}
		fmt.Fprintf(w, "CPU self share by module: %s\n", strings.Join(parts, ", "))
	}
	if len(res.Spans) > 0 {
		fmt.Fprintln(w, "spans (traced passes):")
		for _, s := range res.Spans {
			fmt.Fprintf(w, "  %-32s n=%-5d total %10.2f ms  self %10.2f ms\n", s.Name, s.Count, s.MS, s.SelfMS)
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(b))
}
