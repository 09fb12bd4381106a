package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// goldenSeed is the seed the repository's goldens and the benchmark's
// committed references were produced with. Other seeds have no
// reference; their passes are checked against each other instead.
const goldenSeed = 42

// runner is one workload set up for one seed.
type runner interface {
	// pass runs the workload's work once and returns what it delivered.
	pass(tr *tracer) (pass, error)
	// reference returns the bytes every report of every pass must equal,
	// naming where they come from; nil means the seed has no reference.
	reference() (ref []byte, source string, err error)
	// verify runs the workload's extra untimed check against the first
	// pass and returns one line per mismatch, plus the checks it made.
	verify(first pass) (failures []string, checks int)
	close()
}

// pass is one repetition of a workload's work.
type pass struct {
	// wall is the host time of the measured work: every cell of the pass
	// (campaign: the cold phase, from submit to the last cell event).
	wall time.Duration
	// simWall is the part of wall spent simulating: all of it for local
	// runs; for the campaign, submit to the last store Put, which leaves
	// out the status-poll delay before the results reach the client.
	simWall time.Duration
	// recs are the cells delivered, in grid order (campaign: cold phase).
	recs []metrics.RunRecord
	// latS is each cell's submit-to-result host time in seconds.
	latS []float64
	// reports are the encoded outputs the checks compare.
	reports [][]byte
	// encodeMS is the host time, per report, of turning results into
	// records and encoding the report.
	encodeMS []float64
	// checks counts the pass's own accounting assertions (campaign: one
	// per phase); failedChecks of them failed, for the reasons in failures.
	checks, failedChecks int
	failures             []string
	// campaign holds a campaign pass's phases by name.
	campaign map[string]*phaseResult
}

// work is a pass's deterministic work block. Two passes of one seed must
// report identical work.
type work struct {
	Cells        int    `json:"cells"`
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	Walks        uint64 `json:"walks"`
	Transfers    uint64 `json:"transfers"`
	WriteBacks   uint64 `json:"write_backs"`
	DRAMAccesses uint64 `json:"dram_accesses"`
}

func workOf(recs []metrics.RunRecord) work {
	w := work{Cells: len(recs)}
	for _, r := range recs {
		w.Cycles += r.Cycles
		for _, a := range r.Apps {
			w.Instructions += a.Instructions
		}
		w.Walks += r.Walker.Walks
		w.Transfers += r.Bus.TotalTransfers()
		w.WriteBacks += r.Bus.TotalWriteBacks()
		w.DRAMAccesses += r.DRAM.Accesses
	}
	return w
}

// encodeReport encodes rep exactly as the CLIs write it.
func encodeReport(rep metrics.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readFileRef reads a reference file when the seed is the golden seed.
func readFileRef(seed int64, path string) ([]byte, string, error) {
	if seed != goldenSeed {
		return nil, "", nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("reading reference: %w", err)
	}
	return b, path, nil
}

// simJobs is the simulation concurrency of the workloads that fan out:
// at most two, and never more than the machine's CPUs.
func simJobs() int { return min(2, runtime.NumCPU()) }

func appsWorkload(names string) (workload.Workload, error) {
	var specs []workload.Spec
	for _, n := range strings.Split(names, ",") {
		s, err := workload.ByName(n)
		if err != nil {
			return workload.Workload{}, err
		}
		specs = append(specs, s)
	}
	return workload.Workload{Name: names, Apps: specs}, nil
}

// ---------------------------------------------------------------- plain runs

// plainRunner runs a fixed list of single simulations one after another
// on one goroutine, exactly as mosaic-sim does, and reports them the way
// mosaic-sim -record writes them.
type plainRunner struct {
	seed     int64
	apps     string
	cfg      config.Config
	wl       workload.Workload
	policies []harness.NamedPolicy
	refPath  string
}

// newPlainRunner builds the configuration for a mosaic-sim style run and
// constructs (and discards) every cell's simulator once, which is the
// set-up a user of these runs pays before the first cycle.
func newPlainRunner(seed int64, apps, policies string, scale int, noPaging bool, oversub float64, refPath string) (*plainRunner, error) {
	cfg := config.Eval()
	cfg.WorkloadScale = scale
	if noPaging {
		cfg.IOBusEnabled = false
	}
	wl, err := appsWorkload(apps)
	if err != nil {
		return nil, err
	}
	if oversub > 0 {
		cfg.MaxResidentPages = workload.ResidentBudget(cfg, wl, oversub)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pols, err := harness.ParsePolicies(policies)
	if err != nil {
		return nil, err
	}
	r := &plainRunner{seed: seed, apps: apps, cfg: cfg, wl: wl, policies: pols, refPath: refPath}
	for _, p := range pols {
		if _, err := sim.New(cfg, wl, r.options(p)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// options are mosaic-sim's: its -frag-occupancy default of 0.5 is part
// of every run's config digest even with fragmentation off.
func (r *plainRunner) options(p harness.NamedPolicy) sim.Options {
	return sim.Options{Policy: p.Policy, Seed: r.seed, FragOccupancy: 0.5}
}

func (r *plainRunner) pass(tr *tracer) (pass, error) {
	var p pass
	root := tr.begin("pass", -1)
	defer tr.end(root)
	start := time.Now()
	var encode time.Duration
	for _, pol := range r.policies {
		t0 := time.Now()
		sp := tr.begin("sim.New", root)
		s, err := sim.New(r.cfg, r.wl, r.options(pol))
		tr.end(sp)
		if err != nil {
			return p, err
		}
		sp = tr.begin("sim.Run", root)
		res, err := s.Run()
		tr.end(sp)
		if err != nil {
			return p, err
		}
		t1 := time.Now()
		sp = tr.begin("metrics.NewRunRecord", root)
		p.recs = append(p.recs, metrics.NewRunRecord(res))
		tr.end(sp)
		t2 := time.Now()
		encode += t2.Sub(t1)
		p.latS = append(p.latS, t2.Sub(t0).Seconds())
	}
	t0 := time.Now()
	sp := tr.begin("metrics.encode", root)
	b, err := encodeReport(metrics.Report{
		SchemaVersion: metrics.SchemaVersion,
		Generator:     "mosaic-sim",
		Seed:          r.seed,
		Apps:          strings.Split(r.apps, ","),
		Figures: []metrics.Figure{{
			ID:    "sim",
			Title: "mosaic-sim " + r.apps,
			Runs:  p.recs,
		}},
	})
	tr.end(sp)
	if err != nil {
		return p, err
	}
	encode += time.Since(t0)
	p.wall = time.Since(start)
	p.simWall = p.wall
	p.reports = [][]byte{b}
	p.encodeMS = []float64{ms(encode)}
	return p, nil
}

func (r *plainRunner) reference() ([]byte, string, error) { return readFileRef(r.seed, r.refPath) }

func (r *plainRunner) verify(pass) ([]string, int) { return nil, 0 }

func (r *plainRunner) close() {}

// newTranslate is the translation-path workload: NW next to GUPS with
// paging off under GPU-MMU and Mosaic. Its reference is a mosaic-sim
// -record export committed under perfbench/testdata.
func newTranslate(seed int64) (runner, error) {
	return newPlainRunner(seed, "NW,GUPS", "gpummu,mosaic", 24, true, 0,
		filepath.Join("perfbench", "testdata", "translate-ref.json"))
}

// newOversub is the paging workload: CI's oversub-smoke configuration,
// checked against its golden.
func newOversub(seed int64) (runner, error) {
	return newPlainRunner(seed, "SWP-S,SWP-D", "all", 24, false, 2,
		filepath.Join("testdata", "golden", "oversub-smoke.json"))
}
