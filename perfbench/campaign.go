package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coordinator"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/serviceclient"
	"repro/internal/store"
)

// The campaign workload: one closed-loop client submits CI's
// campaign-smoke grid to an in-process coordinator fronting two
// in-process mosaicd workers (one simulation slot each) that share one
// disk store, over loopback. A pass has three phases:
//
//	cold: fresh workers on an empty store, so every cell simulates;
//	warm: fresh workers on the same store, so every cell is a store read;
//	hot:  the same workers again, so every cell is an in-memory cache hit.
//
// The coordinator keeps its default status polling on purpose, so a later
// change to polling shows in cold-cell latency.

var (
	campaignApps     = []string{"NW", "NW"}
	campaignPolicies = []string{"gpummu", "mosaic"}
	campaignDim      = "l1base"
	campaignValues   = []int{16, 64, 256}
)

// phaseNames in pass order.
var phaseNames = []string{"cold", "warm", "hot"}

// phaseResult is what one phase delivered and what it cost.
type phaseResult struct {
	wall time.Duration
	// simWall (cold phase) runs from submit to the return of the last
	// store Put: the time the fleet spent simulating the grid.
	simWall time.Duration
	latS    []float64
	recs    []metrics.RunRecord
	report  []byte
	encode  time.Duration
	getMS   []float64 // store Get latencies during the phase
	getHits int
	putMS   []float64 // store Put latencies during the phase
	slackMS []float64 // cell event arrival minus its store Put return
	polls   int64     // worker status requests the coordinator made
	// Counter deltas scraped from /metrics around the phase.
	runsCompleted, storeServes, cacheHits, requeues, cellsFailed float64
}

// storeLedger is shared by every timed store of a pass.
type storeLedger struct {
	mu      sync.Mutex
	getMS   []float64
	getHits int
	putMS   []float64
	putDone map[string]time.Time
}

// drain returns and clears the Get/Put timings recorded so far.
func (l *storeLedger) drain() (getMS []float64, hits int, putMS []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	getMS, hits, putMS = l.getMS, l.getHits, l.putMS
	l.getMS, l.getHits, l.putMS = nil, 0, nil
	return
}

// timedStore is the store.ResultStore handed to each worker: it times
// every Get and Put and remembers when each key's Put returned.
type timedStore struct {
	store.ResultStore
	ledger *storeLedger
	tr     *tracer
}

// Get reads through to the store and records how long the read took and
// whether it hit.
func (s *timedStore) Get(k store.Key) ([]byte, error) {
	sp := s.tr.begin("store.Get", -1)
	t0 := time.Now()
	b, err := s.ResultStore.Get(k)
	d := time.Since(t0)
	s.tr.end(sp)
	s.ledger.mu.Lock()
	s.ledger.getMS = append(s.ledger.getMS, ms(d))
	if err == nil {
		s.ledger.getHits++
	}
	s.ledger.mu.Unlock()
	return b, err
}

// Put writes through to the store and records how long the write took
// and when it returned.
func (s *timedStore) Put(k store.Key, payload []byte) error {
	sp := s.tr.begin("store.Put", -1)
	t0 := time.Now()
	err := s.ResultStore.Put(k, payload)
	done := time.Now()
	s.tr.end(sp)
	s.ledger.mu.Lock()
	s.ledger.putMS = append(s.ledger.putMS, ms(done.Sub(t0)))
	s.ledger.putDone[k.String()] = done
	s.ledger.mu.Unlock()
	return err
}

// countingTransport is the coordinator's HTTP transport: it counts the
// worker status polls among the requests it forwards.
type countingTransport struct {
	base  *http.Transport
	polls atomic.Int64
}

// RoundTrip counts status polls and forwards every request.
func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && isStatusPath(r.URL.Path) {
		c.polls.Add(1)
	}
	return c.base.RoundTrip(r)
}

// isStatusPath matches GET /v1/runs/{id}, the serviceclient Wait poll.
func isStatusPath(p string) bool {
	id, ok := strings.CutPrefix(p, "/v1/runs/")
	return ok && id != "" && !strings.Contains(id, "/")
}

// daemon is one in-process HTTP service on a loopback port.
type daemon struct {
	url    string
	hs     *http.Server
	served chan error
	svc    *server.Server // nil for the coordinator
	co     *coordinator.Coordinator
	client *serviceclient.Client
}

// Every daemon is addressed by CI campaign-smoke's address for it, and
// the fleet's transports dial that name to the daemon's real, ephemeral
// loopback port. The coordinator's hash ring is over worker URLs, so
// fixed names make it place every cell on the same worker in every run,
// as it does in CI, while no fixed port is ever bound.
var (
	workerNames = []string{"127.0.0.1:8641", "127.0.0.1:8642"}
	coordName   = "127.0.0.1:8640"
)

// fleet is two workers and their coordinator.
type fleet struct {
	workers []*daemon
	coord   *daemon
	addrs   map[string]string // daemon name -> listening address; written only before the first request
	rt      *countingTransport
	tr      *http.Transport // the benchmark client's own transport
	client  *serviceclient.Client
}

// serve starts h on a loopback port under name.
func (f *fleet) serve(name string, h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.addrs[name] = ln.Addr().String()
	d := &daemon{url: "http://" + name, hs: &http.Server{Handler: h}, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = serviceclient.New(d.url)
	d.client.HTTPClient = &http.Client{Transport: f.tr}
	return d, nil
}

// dial connects to a daemon by name.
func (f *fleet) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	if real, ok := f.addrs[addr]; ok {
		addr = real
	}
	var d net.Dialer
	return d.DialContext(ctx, network, addr)
}

// startFleet brings up two workers, each with its own handle on the disk
// store at dir, and a coordinator over them.
func startFleet(dir string, ledger *storeLedger, tr *tracer) (*fleet, error) {
	f := &fleet{addrs: map[string]string{}}
	f.rt = &countingTransport{base: &http.Transport{DialContext: f.dial, MaxIdleConnsPerHost: 64}}
	f.tr = &http.Transport{DialContext: f.dial}
	var urls []string
	for _, name := range workerNames {
		disk, err := store.NewDisk(dir)
		if err != nil {
			f.stop()
			return nil, err
		}
		svc := server.New(server.Options{
			Workers:   1,
			QueueSize: 16,
			Store:     &timedStore{ResultStore: disk, ledger: ledger, tr: tr},
		})
		d, err := f.serve(name, svc.Handler())
		if err != nil {
			svc.Shutdown(context.Background())
			f.stop()
			return nil, err
		}
		d.svc = svc
		f.workers = append(f.workers, d)
		urls = append(urls, d.url)
	}
	co, err := coordinator.New(coordinator.Options{Workers: urls, HTTPClient: &http.Client{Transport: f.rt}})
	if err != nil {
		f.stop()
		return nil, err
	}
	d, err := f.serve(coordName, co.Handler())
	if err != nil {
		f.stop()
		return nil, err
	}
	d.co = co
	f.coord = d
	f.client = d.client
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, w := range append([]*daemon{d}, f.workers...) {
		if err := w.client.Health(ctx); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// stop shuts every daemon down and waits for each to finish serving.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shut := func(d *daemon) {
		if d == nil {
			return
		}
		if d.co != nil {
			d.co.Drain()
		}
		if d.svc != nil {
			if err := d.svc.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: draining", d.url, err)
			}
		}
		if err := d.hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping", d.url, err)
		}
		<-d.served
	}
	shut(f.coord)
	for _, w := range f.workers {
		shut(w)
	}
	f.rt.base.CloseIdleConnections()
	f.tr.CloseIdleConnections()
}

// scrape sums the named counters over the workers' /metrics and reads the
// coordinator's.
func (f *fleet) scrape(tr *tracer, parent int) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sum := map[string]float64{}
	for _, d := range append([]*daemon{f.coord}, f.workers...) {
		sp := tr.begin("scrape /metrics", parent)
		text, err := d.client.Metrics(ctx)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(strings.NewReader(text))
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err == nil {
				sum[name] += v
			}
		}
	}
	return sum, nil
}

// campaignRunner submits exactly CI's campaign-smoke request, whatever
// the workload seed: its cells simulate with seed 42, so every run is
// checked against CI's golden, and the ring, which hashes each cell's
// config digest, places the cells on the same workers in every run. A
// seed-dependent grid would move cells between workers and make the cold
// phase's length depend on the seed more than on the code under test.
type campaignRunner struct {
	grid  sweepGrid
	root  string // per-process scratch directory for stores
	n     int
	setup *fleet // the fleet set-up brought up; idle until close
}

// newCampaign brings a fleet up on an empty store and checks its health:
// the set-up a campaign user pays before the first submit. Passes bring
// up fleets of their own, so tearing this one down waits for close,
// outside the timed set-up.
func newCampaign(int64) (runner, error) {
	grid, err := newSweepGrid(campaignApps, campaignDim, campaignValues, strings.Join(campaignPolicies, ","))
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(".bench_build", "campaign-")
	if err != nil {
		return nil, err
	}
	r := &campaignRunner{grid: grid, root: root}
	r.setup, err = startFleet(r.nextStore(), &storeLedger{putDone: map[string]time.Time{}}, nil)
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *campaignRunner) nextStore() string {
	r.n++
	return filepath.Join(r.root, fmt.Sprintf("store-%d", r.n))
}

func (r *campaignRunner) request() server.CampaignRequest {
	return server.CampaignRequest{
		Base:     server.RunRequest{Apps: campaignApps, Seed: goldenSeed},
		Policies: campaignPolicies,
		Dim:      campaignDim,
		Values:   campaignValues,
	}
}

// phase submits the grid once, follows the cell events, scrapes the
// fleet's counters around it, and checks the phase's accounting.
func (r *campaignRunner) phase(name string, f *fleet, ledger *storeLedger, tr *tracer, parent int) (*phaseResult, []string, error) {
	root := tr.begin("phase "+name, parent)
	defer tr.end(root)
	before, err := f.scrape(tr, root)
	if err != nil {
		return nil, nil, err
	}
	ledger.drain()
	polls0 := f.rt.polls.Load()
	req := r.request()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	start := time.Now()
	sp := tr.begin("serviceclient.SubmitCampaign", root)
	st, err := f.client.SubmitCampaign(ctx, req)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	events := make([]server.CellEvent, st.Cells)
	arrived := make([]time.Time, st.Cells)
	got := 0
	sp = tr.begin("serviceclient.StreamCampaign", root)
	err = f.client.StreamCampaign(ctx, st.ID, func(ev server.CellEvent) error {
		if ev.Index < 0 || ev.Index >= st.Cells || !arrived[ev.Index].IsZero() {
			return nil
		}
		arrived[ev.Index] = time.Now()
		events[ev.Index] = ev
		got++
		return nil
	})
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if got != st.Cells {
		return nil, nil, fmt.Errorf("campaign %s phase: %d of %d cell events", name, got, st.Cells)
	}
	ph := &phaseResult{polls: f.rt.polls.Load() - polls0}
	for _, t := range arrived {
		ph.latS = append(ph.latS, t.Sub(start).Seconds())
		if d := t.Sub(start); d > ph.wall {
			ph.wall = d
		}
	}
	var failures []string
	ph.getMS, ph.getHits, ph.putMS = ledger.drain()
	if name == "cold" {
		ledger.mu.Lock()
		for i, ev := range events {
			key := store.Key{Workload: ev.Workload, Policy: ev.Policy, ConfigDigest: ev.ConfigDigest}.String()
			if put, ok := ledger.putDone[key]; ok {
				ph.slackMS = append(ph.slackMS, ms(arrived[i].Sub(put)))
				ph.simWall = max(ph.simWall, put.Sub(start))
			}
		}
		ledger.mu.Unlock()
		if len(ph.slackMS) != len(events) {
			failures = append(failures, fmt.Sprintf("cold phase: %d of %d cells were written to the store", len(ph.slackMS), len(events)))
		}
	}

	t0 := time.Now()
	sp = tr.begin("metrics.decode+encode", root)
	ph.recs, err = eventRecords(events)
	if err == nil {
		ph.report, err = r.grid.report(goldenSeed, ph.recs)
	}
	tr.end(sp)
	ph.encode = time.Since(t0)
	if err != nil {
		failures = append(failures, fmt.Sprintf("%s phase: %v", name, err))
	}

	after, err := f.scrape(tr, root)
	if err != nil {
		return nil, nil, err
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	ph.runsCompleted = delta("mosaicd_runs_completed_total")
	ph.storeServes = delta("mosaicd_store_serves_total")
	ph.cacheHits = delta("mosaicd_cache_hits_total")
	ph.requeues = delta("coordinator_cell_retries_total")
	ph.cellsFailed = delta("coordinator_cells_failed_total")

	cells := float64(st.Cells)
	want := map[string][3]float64{ // runs completed, store serves, cache hits
		"cold": {cells, 0, 0},
		"warm": {0, cells, 0},
		"hot":  {0, 0, cells},
	}[name]
	got3 := [3]float64{ph.runsCompleted, ph.storeServes, ph.cacheHits}
	if got3 != want {
		failures = append(failures, fmt.Sprintf("%s phase: runs completed/store serves/cache hits %v, want %v", name, got3, want))
	}
	if ph.requeues != 0 || ph.cellsFailed != 0 {
		failures = append(failures, fmt.Sprintf("%s phase: %v requeues, %v failed cells", name, ph.requeues, ph.cellsFailed))
	}
	for i, ev := range events {
		if ev.State != server.JobDone || ev.Cached != (name != "cold") {
			failures = append(failures, fmt.Sprintf("%s phase: cell %d state %s cached %v", name, i, ev.State, ev.Cached))
		}
	}
	return ph, failures, nil
}

// eventRecords decodes each cell event's one-record result report, in
// grid order.
func eventRecords(events []server.CellEvent) ([]metrics.RunRecord, error) {
	recs := make([]metrics.RunRecord, len(events))
	for i, ev := range events {
		if ev.State != server.JobDone {
			return nil, fmt.Errorf("cell %d: %s %s", i, ev.State, ev.Error)
		}
		rep, err := metrics.ReadReport(bytes.NewReader(ev.Result))
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		if len(rep.Figures) != 1 || len(rep.Figures[0].Runs) != 1 {
			return nil, fmt.Errorf("cell %d: malformed result report", i)
		}
		recs[i] = rep.Figures[0].Runs[0]
	}
	return recs, nil
}

func (r *campaignRunner) pass(tr *tracer) (pass, error) {
	var p pass
	root := tr.begin("pass", -1)
	defer tr.end(root)
	dir := r.nextStore()
	ledger := &storeLedger{putDone: map[string]time.Time{}}
	p.campaign = map[string]*phaseResult{}

	run := func(name string, f *fleet) error {
		ph, failures, err := r.phase(name, f, ledger, tr, root)
		if err != nil {
			return err
		}
		p.campaign[name] = ph
		p.checks++
		if len(failures) > 0 {
			p.failedChecks++
			p.failures = append(p.failures, failures...)
		}
		p.reports = append(p.reports, ph.report)
		p.encodeMS = append(p.encodeMS, ms(ph.encode))
		return nil
	}

	cold, err := startFleet(dir, ledger, tr)
	if err != nil {
		return p, err
	}
	err = run("cold", cold)
	cold.stop()
	if err != nil {
		return p, err
	}
	warm, err := startFleet(dir, ledger, tr)
	if err != nil {
		return p, err
	}
	err = run("warm", warm)
	if err == nil {
		err = run("hot", warm)
	}
	warm.stop()
	if err != nil {
		return p, err
	}
	c := p.campaign["cold"]
	p.wall, p.simWall, p.recs, p.latS = c.wall, c.simWall, c.recs, c.latS
	return p, os.RemoveAll(dir)
}

func (r *campaignRunner) reference() ([]byte, string, error) {
	return readFileRef(goldenSeed, filepath.Join("testdata", "golden", "campaign-smoke.json"))
}

func (r *campaignRunner) verify(pass) ([]string, int) { return nil, 0 }

func (r *campaignRunner) close() {
	if r.setup != nil {
		r.setup.stop()
	}
	if err := os.RemoveAll(r.root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
