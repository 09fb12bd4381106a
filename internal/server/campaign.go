package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/promtext"
)

// maxCampaignCells bounds one campaign's grid; larger sweeps should be
// split — a single grid beyond this is almost certainly a client bug.
const maxCampaignCells = 4096

// PlannedCell is one cell of a campaign grid: its position, the
// RunRequest that executes it, and the resolved result identity. The
// identity comes from the same buildJob path that executes requests, so
// a planned digest always matches the executed one.
type PlannedCell struct {
	// Index is the cell's grid position (value-major: value index *
	// len(policies) + policy index — the mosaic-sweep cell order).
	Index int
	// Req is the single-run request that computes this cell.
	Req RunRequest
	// Workload/Policy/ConfigDigest are the cell's result identity
	// triple — its cache and store address.
	Workload     string
	Policy       string
	ConfigDigest string
}

// Event builds the cell's terminal-event skeleton: identity fields
// filled, Result/Error left for the caller.
func (c PlannedCell) Event(state JobState) CellEvent {
	return CellEvent{
		Index:        c.Index,
		Workload:     c.Workload,
		Policy:       c.Policy,
		ConfigDigest: c.ConfigDigest,
		DimValue:     c.Req.DimValue,
		State:        state,
	}
}

// PlanCampaign expands a campaign into its cell grid, validating every
// cell against the base configuration. The coordinator and the server
// plan with the same function, so they always agree on the grid and its
// digests.
func PlanCampaign(base func() config.Config, req CampaignRequest) ([]PlannedCell, error) {
	if len(req.Policies) == 0 {
		return nil, errors.New("policies required")
	}
	if req.Base.Policy != "" {
		return nil, errors.New("base.policy must be empty: the campaign's Policies axis supplies it per cell")
	}
	if req.Base.Dim != "" || req.Base.DimValue != 0 {
		return nil, errors.New("base.dim/dimValue must be empty: the campaign's Dim/Values axis supplies them per cell")
	}
	vals := req.Values
	if req.Dim == "" {
		if len(req.Values) > 0 {
			return nil, errors.New("values without dim")
		}
		vals = []int{0} // one-row grid over the policy axis alone
	} else if len(vals) == 0 {
		return nil, errors.New("dim without values")
	}
	if n := len(vals) * len(req.Policies); n > maxCampaignCells {
		return nil, fmt.Errorf("%d cells exceed the %d-cell campaign bound; split the sweep", n, maxCampaignCells)
	}

	cells := make([]PlannedCell, 0, len(vals)*len(req.Policies))
	for vi, v := range vals {
		for pi, pol := range req.Policies {
			r := req.Base
			r.Policy = pol
			if req.Dim != "" {
				r.Dim, r.DimValue = req.Dim, v
			}
			j, err := buildJob(base, r)
			if err != nil {
				return nil, fmt.Errorf("cell %d (%s=%d, policy %s): %w", vi*len(req.Policies)+pi, req.Dim, v, pol, err)
			}
			cells = append(cells, PlannedCell{
				Index:        vi*len(req.Policies) + pi,
				Req:          r,
				Workload:     j.wl.Name,
				Policy:       j.policy.String(),
				ConfigDigest: j.digest,
			})
		}
	}
	return cells, nil
}

// cellSource records how mosaicd answered a run or campaign cell.
type cellSource int

const (
	srcSim   cellSource = iota // enqueued and simulated (or joined a live job)
	srcCache                   // deduplicated onto a cached done job
	srcStore                   // answered from the persistent store
)

// Campaigns serves the campaign API — submit, status, stream, cancel —
// for one front-end. mosaicd and the coordinator each own one and
// differ only in their admit function, so clients see the same plans,
// IDs, streams and counters from either.
//
// admit blocks until a cell may start: an error ends the cell failed,
// or canceled when it wraps context.Canceled. Otherwise it returns the
// function that finishes the cell — it waits for the outcome and
// returns the cell's terminal event and whether the cell was answered
// from a cache or from a result store.
type Campaigns struct {
	who   string // names the front-end in the draining 503
	base  func() config.Config
	admit func(ctx context.Context, cell PlannedCell) (finish func() (ev CellEvent, fromCache, fromStore bool), err error)

	mu     sync.Mutex
	closed bool
	seq    uint64
	byID   map[string]*campaign

	total, cells, cached, failed atomic.Uint64
	active                       atomic.Int64
}

// NewCampaigns builds the campaign table of the front-end named who
// ("server", "coordinator"), planning grids from base and running cells
// through admit.
func NewCampaigns(who string, base func() config.Config,
	admit func(ctx context.Context, cell PlannedCell) (finish func() (ev CellEvent, fromCache, fromStore bool), err error)) *Campaigns {
	return &Campaigns{who: who, base: base, admit: admit, byID: make(map[string]*campaign)}
}

// Close turns away new campaigns with 503; running ones keep going.
func (c *Campaigns) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Metrics reports the campaign counters, named with the front-end's
// prefixes: <campaigns>campaigns_{total,active} and
// <cells>cells_{total,cached_total,failed_total}.
func (c *Campaigns) Metrics(campaigns, cells string) []promtext.Metric {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	return []promtext.Metric{
		{Name: campaigns + "campaigns_total", Help: "Campaigns accepted.", Type: "counter", Value: u(c.total.Load())},
		{Name: campaigns + "campaigns_active", Help: "Campaigns currently running.", Type: "gauge", Value: strconv.FormatInt(c.active.Load(), 10)},
		{Name: cells + "cells_total", Help: "Cells across all accepted campaigns.", Type: "counter", Value: u(c.cells.Load())},
		{Name: cells + "cells_cached_total", Help: "Campaign cells answered from the cache or store.", Type: "counter", Value: u(c.cached.Load())},
		{Name: cells + "cells_failed_total", Help: "Campaign cells that ended failed.", Type: "counter", Value: u(c.failed.Load())},
	}
}

// Submit is the POST /v1/campaigns handler: plan the grid, register it
// under the next c%06d ID and start its feeder.
func (c *Campaigns) Submit(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	cells, err := PlanCampaign(c.base, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, c.who+" is draining")
		return
	}
	c.seq++
	cp := newCampaign(fmt.Sprintf("c%06d", c.seq), len(cells))
	c.byID[cp.id] = cp
	c.mu.Unlock()

	c.total.Add(1)
	c.active.Add(1)
	c.cells.Add(uint64(len(cells)))
	// Snapshot before the feeder starts: cells answered from a cache can
	// finish the campaign before the response is written, and the 202
	// reports the campaign as accepted, not as it is by then.
	accepted := cp.status()
	go c.run(cp, cells)
	writeJSON(w, http.StatusAccepted, accepted)
}

// Route registers the per-campaign endpoints on mux: status, the NDJSON
// event stream, and cancel. Each front-end mounts Submit itself.
func (c *Campaigns) Route(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		if cp := c.lookup(w, r); cp != nil {
			writeJSON(w, http.StatusOK, cp.status())
		}
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		if cp := c.lookup(w, r); cp != nil {
			cp.serveStream(w, r)
		}
	})
	// Cancel stops feeding; unfinished cells emit canceled events and the
	// stream closes after the terminal replay. Cells already running
	// finish and keep warming caches and stores. Canceling a terminal
	// campaign is a no-op.
	mux.HandleFunc("POST /v1/campaigns/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if cp := c.lookup(w, r); cp != nil {
			cp.cancel()
			writeJSON(w, http.StatusOK, cp.status())
		}
	})
}

// lookup resolves the request's campaign, answering 404 itself when
// there is none.
func (c *Campaigns) lookup(w http.ResponseWriter, r *http.Request) *campaign {
	c.mu.Lock()
	cp := c.byID[r.PathValue("id")]
	c.mu.Unlock()
	if cp == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
	}
	return cp
}

// run is the campaign's feeder: it admits cells in grid order and
// spawns one waiter per admitted cell that records the cell's single
// terminal event. Cell failures are recorded, never fatal; a canceled
// campaign marks its unfed cells canceled.
func (c *Campaigns) run(cp *campaign, cells []PlannedCell) {
	defer c.active.Add(-1)
	var wg sync.WaitGroup
	for _, cell := range cells {
		if cp.ctx.Err() != nil {
			c.note(cp, cell.Event(JobCanceled), false, false)
			continue
		}
		finish, err := c.admit(cp.ctx, cell)
		if err != nil {
			ev := cell.Event(JobCanceled)
			if !errors.Is(err, context.Canceled) {
				ev.State, ev.Error = JobFailed, err.Error()
			}
			c.note(cp, ev, false, false)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev, fromCache, fromStore := finish()
			c.note(cp, ev, fromCache, fromStore)
		}()
	}
	wg.Wait()
	if cp.ctx.Err() != nil {
		cp.finish(CampaignCanceled)
		return
	}
	cp.finish(CampaignDone)
}

// note records a cell's terminal event: the table's counters, the
// campaign's counters and event log, and a wakeup for stream followers.
// Exactly one note per cell is the feeder's contract — the log does not
// deduplicate.
func (c *Campaigns) note(cp *campaign, ev CellEvent, fromCache, fromStore bool) {
	if ev.Cached {
		c.cached.Add(1)
	}
	cp.mu.Lock()
	switch ev.State {
	case JobDone:
		cp.done++
	case JobFailed:
		cp.failed++
		c.failed.Add(1)
	case JobCanceled:
		cp.canceled++
	}
	if fromCache {
		cp.fromCache++
	}
	if fromStore {
		cp.fromStore++
	}
	cp.events = append(cp.events, ev)
	close(cp.bump)
	cp.bump = make(chan struct{})
	cp.mu.Unlock()
}

// campaign is one accepted grid: its cancellation context, lifecycle
// counters, and the append-only event log that NDJSON streams replay
// from — every event from the start on (re)connect, follow-mode until
// terminal, then a clean close.
type campaign struct {
	id    string
	cells int

	// ctx ends the campaign early; work already in flight is left to
	// finish (it warms caches and stores either way) — cancel stops
	// feeding and unfinished cells are marked canceled by the feeder.
	ctx    context.Context
	cancel context.CancelFunc

	mu                   sync.Mutex
	state                CampaignState
	done                 int
	failed               int
	canceled             int
	fromCache, fromStore int

	// events is append-only, one terminal event per cell in completion
	// order; streams replay it from the start, so reconnects never miss
	// a cell. bump is closed and replaced on every append; finished is
	// closed once the state turns terminal.
	events   []CellEvent
	bump     chan struct{}
	finished chan struct{}
}

func newCampaign(id string, cells int) *campaign {
	ctx, cancel := context.WithCancel(context.Background())
	return &campaign{
		id:       id,
		cells:    cells,
		ctx:      ctx,
		cancel:   cancel,
		state:    CampaignRunning,
		bump:     make(chan struct{}),
		finished: make(chan struct{}),
	}
}

// finish moves the campaign to a terminal state exactly once; later
// calls are no-ops.
func (l *campaign) finish(state CampaignState) {
	l.mu.Lock()
	if !l.state.Terminal() {
		l.state = state
		close(l.finished)
	}
	l.mu.Unlock()
}

// status snapshots the campaign for a wire response.
func (l *campaign) status() CampaignStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	return CampaignStatus{
		ID:        l.id,
		State:     l.state,
		Cells:     l.cells,
		Done:      l.done,
		Failed:    l.failed,
		Canceled:  l.canceled,
		FromCache: l.fromCache,
		FromStore: l.fromStore,
	}
}

// serveStream writes the campaign's NDJSON event stream: every event
// from the campaign's start (replay makes reconnects lossless), then
// follow-mode until the campaign is terminal and fully drained.
func (l *campaign) serveStream(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	sent := 0
	for {
		l.mu.Lock()
		pending := l.events[sent:]
		bump := l.bump
		state := l.state
		l.mu.Unlock()
		for _, ev := range pending {
			if err := enc.Encode(ev); err != nil {
				return // client gone
			}
		}
		sent += len(pending)
		if flusher != nil && len(pending) > 0 {
			flusher.Flush()
		}
		if state.Terminal() && len(pending) == 0 {
			return
		}
		select {
		case <-bump:
		case <-l.finished:
			// Every event lands before finish; loop once more to drain,
			// then exit on the terminal re-check.
		case <-r.Context().Done():
			return
		}
	}
}

// submitCell is mosaicd's campaign admission: it admits the cell's run
// like POST /v1/runs does, but absorbs queue pressure by retrying every
// 2ms (a campaign is one client; 429-bouncing it against itself would
// just spin) while honoring the campaign's cancellation. A cell's
// timeout clock starts at its first enqueue attempt.
func (s *Server) submitCell(ctx context.Context, cell PlannedCell) (func() (CellEvent, bool, bool), error) {
	j, err := s.buildJob(cell.Req)
	if err != nil {
		return nil, err
	}
	for {
		got, src, err := s.admit(j)
		if errors.Is(err, errQueueFull) {
			select {
			case <-time.After(2 * time.Millisecond):
				continue
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		if err != nil {
			if j.cancel != nil {
				j.cancel() // started but never admitted: release its context
			}
			return nil, err
		}
		return func() (CellEvent, bool, bool) {
			return s.awaitCell(ctx, cell, got, src), src == srcCache, src == srcStore
		}, nil
	}
}

// awaitCell waits for one cell's job and builds the cell's terminal
// event. A campaign cancellation yields a canceled event immediately;
// the underlying job keeps running (its result still warms the store).
func (s *Server) awaitCell(ctx context.Context, cell PlannedCell, j *job, src cellSource) CellEvent {
	select {
	case <-j.done:
	case <-ctx.Done():
		return cell.Event(JobCanceled)
	}

	j.mu.Lock()
	state, errMsg, result := j.state, j.errMsg, j.result
	j.mu.Unlock()
	ev := cell.Event(state)
	switch state {
	case JobDone:
		if result == nil {
			// LRU-evicted between completion and this read: the store
			// still has the bytes.
			result = s.tryStore(j)
		}
		if result == nil {
			ev.State = JobFailed
			ev.Error = "result evicted from cache and not in store"
		} else {
			ev.Result = json.RawMessage(result)
			ev.Cached = src != srcSim
		}
	case JobFailed:
		ev.Error = errMsg
	case JobCanceled:
		// The underlying job was canceled out from under the campaign
		// (explicit /v1/runs cancel or drain); the cell reads canceled.
	}
	return ev
}
