package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sweepGrid is a mosaic-sweep grid: one swept dimension's values (rows)
// by policies (columns), cells in value-major order.
type sweepGrid struct {
	apps   []string
	dim    harness.SweepDim
	values []int
	pols   []harness.NamedPolicy
}

func newSweepGrid(apps []string, dim string, values []int, policies string) (sweepGrid, error) {
	d, err := harness.SweepDimByName(dim)
	if err != nil {
		return sweepGrid{}, err
	}
	pols, err := harness.ParsePolicies(policies)
	if err != nil {
		return sweepGrid{}, err
	}
	return sweepGrid{apps: apps, dim: d, values: values, pols: pols}, nil
}

func (g sweepGrid) cells() int { return len(g.values) * len(g.pols) }

// report encodes the grid's records exactly as mosaic-sweep -format json
// writes them.
func (g sweepGrid) report(seed int64, recs []metrics.RunRecord) ([]byte, error) {
	if len(recs) != g.cells() {
		return nil, fmt.Errorf("%d records for a %dx%d grid", len(recs), len(g.values), len(g.pols))
	}
	cols := []string{g.dim.Name}
	for _, p := range g.pols {
		cols = append(cols, p.Policy.String())
	}
	tbl := metrics.Table{Title: fmt.Sprintf("sweep of %s (%s) — total IPC", g.dim.Name, g.dim.Desc), Columns: cols}
	var runs []metrics.RunRecord
	for vi, v := range g.values {
		var row []float64
		for pi := range g.pols {
			rec := recs[vi*len(g.pols)+pi]
			row = append(row, rec.TotalIPC)
			rec.Workload = fmt.Sprintf("%s=%d/%s", g.dim.Name, v, rec.Workload)
			runs = append(runs, rec)
		}
		tbl.AddRowF(strconv.Itoa(v), row...)
	}
	return encodeReport(metrics.Report{
		SchemaVersion: metrics.SchemaVersion,
		Generator:     "mosaic-sweep",
		Seed:          seed,
		Apps:          g.apps,
		Figures: []metrics.Figure{{
			ID:      "sweep-" + g.dim.Name,
			Title:   tbl.Title,
			Columns: tbl.Columns,
			Rows:    tbl.Rows,
			Runs:    runs,
		}},
	})
}

// sweepRunner runs a TLB sweep the way mosaic-sweep -snapshot-warmup does:
// on a harness Runner with at most two jobs, one warmup prefix per policy
// runs under the base configuration and is snapshotted; then every cell
// forks its policy's snapshot, reconfigures to its TLB size and runs the
// rest.
type sweepRunner struct {
	seed int64
	grid sweepGrid
	base config.Config
	wl   workload.Workload
}

// The tlbsweep-fork grid: two copies of NW over the paper's six Figure 14a
// L1 TLB sizes under GPU-MMU and Mosaic, 12 cells from two snapshots. The
// warmup prefix is about 60% of every run (cells end between 770k and
// 880k cycles), so forking pays off while the swept size still changes
// every GPU-MMU result.
var (
	sweepSizes  = []int{8, 16, 32, 64, 128, 256}
	sweepWarmup = uint64(500_000)
)

// newSweep builds the sweep's base configuration and the simulators its
// warmup prefixes start from.
func newSweep(seed int64) (runner, error) {
	grid, err := newSweepGrid([]string{"NW", "NW"}, "l1base", sweepSizes, "gpummu,mosaic")
	if err != nil {
		return nil, err
	}
	wl, err := appsWorkload(strings.Join(grid.apps, ","))
	if err != nil {
		return nil, err
	}
	base := config.Eval()
	r := &sweepRunner{seed: seed, grid: grid, base: base, wl: wl}
	for _, p := range grid.pols {
		if _, err := sim.New(base, wl, r.options(p)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *sweepRunner) options(p harness.NamedPolicy) sim.Options {
	return sim.Options{Policy: p.Policy, Seed: r.seed, SnapshotWarmup: sweepWarmup}
}

// warm builds a simulator on the base configuration and runs its warmup
// prefix.
func (r *sweepRunner) warm(p harness.NamedPolicy, tr *tracer, parent int) (*sim.Simulator, error) {
	sp := tr.begin("sim.New", parent)
	s, err := sim.New(r.base, r.wl, r.options(p))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sim.RunWarmup", parent)
	defer tr.end(sp)
	return s, s.RunWarmup()
}

// run executes every cell's two-phase plan, forked from one snapshot per
// policy or (cold) each from scratch, and returns the records in grid
// order with each cell's completion time since the start.
func (r *sweepRunner) run(forked bool, tr *tracer, parent int) ([]metrics.RunRecord, []float64, error) {
	start := time.Now()
	jobs := harness.NewRunner(simJobs())
	defer jobs.Close()
	np := len(r.grid.pols)
	errs := make([]error, r.grid.cells())
	var snaps []*sim.Snapshot
	if forked {
		snaps = make([]*sim.Snapshot, np)
		for pi, p := range r.grid.pols {
			pi, p := pi, p
			jobs.Submit(func() {
				s, err := r.warm(p, tr, parent)
				if err == nil {
					sp := tr.begin("sim.Snapshot", parent)
					snaps[pi], err = s.Snapshot()
					tr.end(sp)
				}
				errs[pi] = err
			})
		}
		jobs.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, nil, err
		}
	}
	recs := make([]metrics.RunRecord, r.grid.cells())
	done := make([]float64, r.grid.cells())
	for i := range recs {
		i := i
		jobs.Submit(func() {
			var s *sim.Simulator
			var err error
			if forked {
				sp := tr.begin("sim.Fork", parent)
				s = snaps[i%np].Fork()
				tr.end(sp)
			} else {
				s, err = r.warm(r.grid.pols[i%np], tr, parent)
			}
			if err == nil {
				cfg := r.base
				harness.ApplySweepDim(&cfg, r.wl, r.grid.dim, r.grid.values[i/np])
				sp := tr.begin("sim.Reconfigure", parent)
				err = s.Reconfigure(cfg)
				tr.end(sp)
			}
			var res sim.Results
			if err == nil {
				sp := tr.begin("sim.Run", parent)
				res, err = s.Run()
				tr.end(sp)
			}
			if err == nil {
				sp := tr.begin("metrics.NewRunRecord", parent)
				recs[i] = metrics.NewRunRecord(res)
				tr.end(sp)
			}
			done[i] = time.Since(start).Seconds()
			errs[i] = err
		})
	}
	jobs.Wait()
	return recs, done, errors.Join(errs...)
}

func (r *sweepRunner) pass(tr *tracer) (pass, error) {
	var p pass
	root := tr.begin("pass", -1)
	defer tr.end(root)
	start := time.Now()
	recs, done, err := r.run(true, tr, root)
	if err != nil {
		return p, err
	}
	t0 := time.Now()
	sp := tr.begin("metrics.encode", root)
	b, err := r.grid.report(r.seed, recs)
	tr.end(sp)
	if err != nil {
		return p, err
	}
	p.encodeMS = []float64{ms(time.Since(t0))}
	p.wall = time.Since(start)
	p.simWall = p.wall
	p.recs, p.latS, p.reports = recs, done, [][]byte{b}
	return p, nil
}

func (r *sweepRunner) reference() ([]byte, string, error) { return nil, "", nil }

// verify runs every cell's two-phase plan cold (no snapshot, no fork), as
// mosaic-sweep -snapshot-cold does, and requires the forked pass to be
// byte-identical. Both arms run the same plan, so the comparison holds
// whatever quiesce does.
func (r *sweepRunner) verify(first pass) ([]string, int) {
	recs, _, err := r.run(false, nil, -1)
	var b []byte
	if err == nil {
		b, err = r.grid.report(r.seed, recs)
	}
	if err != nil {
		return []string{"cold two-phase reference: " + err.Error()}, 1
	}
	if len(first.reports) == 0 {
		return []string{"no forked sweep to compare"}, 1
	}
	if !bytes.Equal(b, first.reports[0]) {
		return []string{"forked sweep differs from its cold two-phase reference: " + diffSummary(first.reports[0], b)}, 1
	}
	return nil, 1
}

func (r *sweepRunner) close() {}
