package sim

// Snapshot/fork support: capture a warmed simulator once and fork
// independent copies that diverge per sweep cell. A 20-cell TLB sweep
// whose cells share a warmup prefix pays for that prefix once instead of
// 20 times; every fork replays the remainder of the run with
// byte-identical results to a cold two-phase run of the same plan.
//
// Events are data, so a snapshot can be taken at any cycle: the event
// queue, DRAM channel queues, MSHR tables, walker slots, pager queues,
// and the request table are plain values that Fork copies together with
// the rest of the engine, in-flight work included.

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/config"
	"repro/internal/tlb"
)

// RunWarmup executes the shared warmup prefix: it drives the run plan to
// (at least) Options.SnapshotWarmup cycles and stops there, with whatever
// work is in flight left in flight. Snapshot can capture the simulator at
// that point; calling Run next executes the remainder of the plan.
// RunWarmup is idempotent and is invoked automatically by Run when
// SnapshotWarmup is set, so cold runs of a two-phase plan follow exactly
// the same trajectory as forked ones.
func (s *Simulator) RunWarmup() error {
	if s.frozen {
		return errors.New("sim: RunWarmup on a frozen (snapshotted) simulator")
	}
	if s.warmupDone {
		return nil
	}
	if s.opt.SnapshotWarmup == 0 {
		return errors.New("sim: RunWarmup without Options.SnapshotWarmup")
	}
	s.start()
	bound := s.opt.SnapshotWarmup
	if bound > s.cfg.MaxCycles {
		bound = s.cfg.MaxCycles
	}
	if err := s.runUntil(bound); err != nil {
		return err
	}
	s.warmupDone = true
	return nil
}

// Snapshot is a frozen, warmed simulator from which independent forks
// are created. The source must not run further, because forks share its
// state only by copying it at capture time.
type Snapshot struct {
	src *Simulator
}

// Snapshot freezes the warmed simulator and returns a handle from which
// independent forks are created. It requires RunWarmup to have completed.
func (s *Simulator) Snapshot() (*Snapshot, error) {
	if s.frozen {
		return nil, errors.New("sim: Snapshot on an already-frozen simulator")
	}
	if !s.warmupDone {
		return nil, errors.New("sim: Snapshot before RunWarmup completed")
	}
	s.frozen = true
	return &Snapshot{src: s}, nil
}

// Fork builds an independent simulator that resumes from the snapshot
// point. The fork shares nothing mutable with the source or with other
// forks — the event queue, every in-flight request, map, slice, page
// table, allocator free list, TLB array, cache tag store and MSHR table,
// RNG stream, and the pager's queues and LRU list are deep-copied — so
// forks may run concurrently on different goroutines. Fork itself is
// also safe to call concurrently: the frozen source is only read.
//
// The fork's queue holds the source's pending events in the source's
// (cycle, seq) order and continues its sequence counter, so RunRecords
// of a forked run are byte-identical to a cold run of the same two-phase
// plan.
func (sn *Snapshot) Fork() *Simulator {
	s := sn.src
	ns := &Simulator{
		cfg:    s.cfg,
		opt:    s.opt,
		wl:     s.wl,
		digest: s.digest,

		cycle:    s.cycle,
		liveApps: s.liveApps,

		started:    s.started,
		warmupDone: true,

		reqs:    append([]memReq(nil), s.reqs...),
		reqFree: append([]uint32(nil), s.reqFree...),

		l1Req: s.l1Req, l1Hit: s.l1Hit,
		l2Req: s.l2Req, l2Hit: s.l2Hit,
		trFaults: s.trFaults,
	}
	ns.q = s.q.Clone()
	ns.q.SetHandler(ns.fire)
	ns.bus = s.bus.Clone(ns.q)
	ns.mem = s.mem.Clone(ns.q)
	ns.mgr = s.mgr.Clone(ns.q, ns.bus, ns.mem)
	ns.rec = s.rec.Clone()
	ns.mgr.SetTrace(ns.rec)

	ns.l2c = s.l2c.Clone()
	ns.l2cGate = s.l2cGate.Clone()
	ns.l2tlb = s.l2tlb.Clone()
	ns.l2gate = s.l2gate.Clone()
	if s.pwc != nil {
		ns.pwc = s.pwc.Clone()
	}
	ns.walker = s.walker.Clone(ns.mgr, ns.walkAccess, ns.walkDone)
	ns.bindFlushHooks()

	appOf := make(map[*appRun]*appRun, len(s.apps))
	for _, a := range s.apps {
		na := &appRun{
			asid:         a.asid,
			spec:         a.spec,
			base:         a.base,
			buffers:      append([]buffer(nil), a.buffers...),
			liveSMs:      a.liveSMs,
			instructions: a.instructions,
			finishCycle:  a.finishCycle,
			completed:    a.completed,
			deallocDone:  a.deallocDone,
		}
		appOf[a] = na
		ns.apps = append(ns.apps, na)
	}
	for _, m := range s.sms {
		nm := &sm{
			id:      m.id,
			app:     appOf[m.app],
			l1tlb:   m.l1tlb.Clone(),
			l1cache: m.l1cache.Clone(),
			lastIdx: m.lastIdx,
			live:    m.live,
			ready:   append([]uint64(nil), m.ready...),
			soon:    append([]uint64(nil), m.soon...),
			soonAt:  m.soonAt,
			soonN:   m.soonN,
			wake:    append([]wakeEnt(nil), m.wake...),
		}
		for _, w := range m.warps {
			nm.warps = append(nm.warps, &warp{
				idx:         w.idx,
				state:       w.state,
				computeLeft: w.computeLeft,
				gen:         w.gen.Clone(),
				outstanding: w.outstanding,
				retired:     w.retired,
				jitterState: w.jitterState,
			})
		}
		nm.app.sms = append(nm.app.sms, nm)
		ns.sms = append(ns.sms, nm)
	}
	return ns
}

// CanReconfigure reports whether cell differs from base only in the
// knobs a warmed simulator can adopt mid-run: the TLB geometry and
// latency fields (L1 base/large entries and latency; L2 base/large
// entries, base ways, and latency). Grids whose cells vary anything else
// — cache sizes, DRAM timing, walker concurrency, workload scaling —
// cannot share a warmup prefix, and sweep drivers fall back to cold runs.
func CanReconfigure(base, cell config.Config) bool {
	merged := base
	merged.L1TLBBaseEntries = cell.L1TLBBaseEntries
	merged.L1TLBLargeEntries = cell.L1TLBLargeEntries
	merged.L1TLBLatency = cell.L1TLBLatency
	merged.L2TLBBaseEntries = cell.L2TLBBaseEntries
	merged.L2TLBLargeEntries = cell.L2TLBLargeEntries
	merged.L2TLBBaseWays = cell.L2TLBBaseWays
	merged.L2TLBLatency = cell.L2TLBLatency
	return merged == cell
}

// Reconfigure applies a sweep cell's configuration to a warmed simulator
// between warmup and measurement. Only the CanReconfigure fields may
// differ from the current configuration. The TLBs are rebuilt fresh and
// empty under the cell's geometry (their cumulative hit/miss counters
// carry over, so Results still cover the whole run); the manager, page
// tables, caches, and residency state are untouched. Both forked and
// cold two-phase runs call Reconfigure — including for the cell equal to
// the base configuration — so the ConfigDigest chain below is identical
// on either path: the digest becomes FNV-64a of
// "<old digest>|reconf=<cell digest>".
func (s *Simulator) Reconfigure(cell config.Config) error {
	if s.frozen {
		return errors.New("sim: Reconfigure on a frozen simulator; Fork first")
	}
	if !s.warmupDone {
		return errors.New("sim: Reconfigure before warmup completed")
	}
	if err := cell.Validate(); err != nil {
		return fmt.Errorf("sim: Reconfigure: %w", err)
	}
	if !CanReconfigure(s.cfg, cell) {
		return errors.New("sim: Reconfigure may only change TLB geometry/latency fields")
	}
	old := s.l2tlb.Stats()
	s.l2tlb = tlb.MustNew(tlb.Config{
		Name:         "L2TLB",
		BaseEntries:  cell.L2TLBBaseEntries,
		BaseWays:     cell.L2TLBBaseWays,
		LargeEntries: cell.L2TLBLargeEntries,
		Latency:      cell.L2TLBLatency,
	})
	s.l2tlb.RestoreStats(old)
	for _, m := range s.sms {
		o := m.l1tlb.Stats()
		m.l1tlb = tlb.MustNew(tlb.Config{
			Name:         fmt.Sprintf("L1TLB-%d", m.id),
			BaseEntries:  cell.L1TLBBaseEntries,
			LargeEntries: cell.L1TLBLargeEntries,
			Latency:      cell.L1TLBLatency,
		})
		m.l1tlb.RestoreStats(o)
	}
	s.cfg = cell
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|reconf=%s", s.digest, cell.DigestString())
	s.digest = fmt.Sprintf("%016x", h.Sum64())
	return nil
}
