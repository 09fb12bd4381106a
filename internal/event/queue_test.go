package event

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	q := newActions()
	if q.q.Len() != 0 {
		t.Errorf("Len = %d, want 0", q.q.Len())
	}
	if _, ok := q.q.NextCycle(); ok {
		t.Error("NextCycle on empty queue reported ok")
	}
	if n := q.q.RunDue(100); n != 0 {
		t.Errorf("RunDue fired %d events on empty queue", n)
	}
}

func TestFIFOOrderWithinCycle(t *testing.T) {
	q := newActions()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.at(5, func(uint64) { got = append(got, i) })
	}
	q.q.RunDue(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events fired out of order: %v", got)
		}
	}
}

func TestCycleOrdering(t *testing.T) {
	q := newActions()
	var got []uint64
	cycles := []uint64{9, 3, 7, 1, 5}
	for _, c := range cycles {
		c := c
		q.at(c, func(at uint64) {
			if at != c {
				t.Errorf("fired at %d, scheduled for %d", at, c)
			}
			got = append(got, c)
		})
	}
	q.q.RunDue(100)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("events fired out of cycle order: %v", got)
	}
	if len(got) != len(cycles) {
		t.Errorf("fired %d events, want %d", len(got), len(cycles))
	}
}

func TestRunDueStopsAtBoundary(t *testing.T) {
	q := newActions()
	fired := map[uint64]bool{}
	for _, c := range []uint64{1, 2, 3, 4, 5} {
		c := c
		q.at(c, func(uint64) { fired[c] = true })
	}
	q.q.RunDue(3)
	for c := uint64(1); c <= 3; c++ {
		if !fired[c] {
			t.Errorf("event at %d should have fired", c)
		}
	}
	for c := uint64(4); c <= 5; c++ {
		if fired[c] {
			t.Errorf("event at %d fired early", c)
		}
	}
	if q.q.Len() != 2 {
		t.Errorf("Len = %d after partial drain, want 2", q.q.Len())
	}
}

func TestCallbackSchedulingSameCycleRuns(t *testing.T) {
	q := newActions()
	ran := false
	q.at(10, func(at uint64) {
		q.at(at, func(uint64) { ran = true })
	})
	q.q.RunDue(10)
	if !ran {
		t.Error("event scheduled by a callback for the same cycle did not run")
	}
}

func TestNextCycle(t *testing.T) {
	q := newActions()
	q.at(42, func(uint64) {})
	q.at(17, func(uint64) {})
	if c, ok := q.q.NextCycle(); !ok || c != 17 {
		t.Errorf("NextCycle = %d,%v, want 17,true", c, ok)
	}
}

// Property: for any batch of events, RunDue(max) fires all of them in
// nondecreasing cycle order.
func TestOrderingProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newActions()
		count := int(n%64) + 1
		var fired []uint64
		for i := 0; i < count; i++ {
			c := uint64(rng.Intn(1000))
			q.at(c, func(at uint64) { fired = append(fired, at) })
		}
		q.q.RunDue(1000)
		if len(fired) != count {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// ---- Sim-core microbenchmarks (see BENCH_simcore.json) ----

// BenchmarkSimCoreEventQueue measures steady-state Schedule/RunDue churn:
// a window of future events drained in cycle order, the simulator's
// dominant queue pattern.
func BenchmarkSimCoreEventQueue(b *testing.B) {
	var q Queue
	q.SetHandler(func(uint64, Event) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * 8
		for j := uint64(0); j < 8; j++ {
			q.Schedule(base+j, Event{})
		}
		q.RunDue(base + 7)
	}
}

// BenchmarkSimCoreEventQueueSameCycle measures the same-cycle cascade
// pattern: handlers scheduling follow-up work for the cycle currently
// being drained (MSHR completions, coalesced fault wakeups).
func BenchmarkSimCoreEventQueueSameCycle(b *testing.B) {
	var q Queue
	q.SetHandler(func(at uint64, ev Event) {
		if ev.Arg > 0 {
			q.Schedule(at, Event{Arg: ev.Arg - 1})
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := uint64(i)
		q.Schedule(c, Event{Arg: 2})
		q.RunDue(c)
	}
}

// TestSameCycleInterleaving pins the fast-path ordering contract: heap
// items already queued for the drain cycle run before items scheduled
// during the drain, and drain-scheduled items run in FIFO order — the
// exact (cycle, seq) order of the plain-heap implementation.
func TestSameCycleInterleaving(t *testing.T) {
	q := newActions()
	var got []string
	q.at(5, func(at uint64) {
		got = append(got, "a")
		q.at(at, func(uint64) { got = append(got, "a1") })
		q.at(at, func(uint64) { got = append(got, "a2") })
	})
	q.at(5, func(uint64) { got = append(got, "b") })
	q.q.RunDue(5)
	want := "a,b,a1,a2"
	if s := join(got); s != want {
		t.Errorf("same-cycle order = %s, want %s", s, want)
	}
}

// TestEarlierCycleBeatsSameCycleFIFO: an event scheduled during a drain
// for an earlier (overdue) cycle still runs before already-buffered
// same-cycle events, because cycle order dominates sequence order.
func TestEarlierCycleBeatsSameCycleFIFO(t *testing.T) {
	q := newActions()
	var got []string
	q.at(10, func(uint64) {
		got = append(got, "first")
		q.at(10, func(uint64) { got = append(got, "fifo") })
		q.at(7, func(at uint64) {
			if at != 7 {
				t.Errorf("overdue event fired with at=%d, want 7", at)
			}
			got = append(got, "overdue")
		})
	})
	q.q.RunDue(10)
	want := "first,overdue,fifo"
	if s := join(got); s != want {
		t.Errorf("order = %s, want %s", s, want)
	}
}

// TestLenAndNextCycleDuringDrain: bookkeeping stays consistent while the
// fast-path FIFO holds items.
func TestLenAndNextCycleDuringDrain(t *testing.T) {
	q := newActions()
	q.at(3, func(at uint64) {
		q.at(at, func(uint64) {})
		if q.q.Len() != 1 {
			t.Errorf("Len mid-drain = %d, want 1", q.q.Len())
		}
		if c, ok := q.q.NextCycle(); !ok || c != 3 {
			t.Errorf("NextCycle mid-drain = %d,%v, want 3,true", c, ok)
		}
	})
	q.q.RunDue(3)
	if q.q.Len() != 0 {
		t.Errorf("Len after drain = %d, want 0", q.q.Len())
	}
}

// TestScheduleAllocFree: steady-state scheduling performs zero per-event
// allocations once the backing arrays are warm.
func TestScheduleAllocFree(t *testing.T) {
	var q Queue
	q.SetHandler(func(uint64, Event) {})
	// Warm the heap and FIFO capacity.
	for i := uint64(0); i < 64; i++ {
		q.Schedule(i, Event{})
	}
	q.RunDue(64)
	var c uint64
	allocs := testing.AllocsPerRun(1000, func() {
		for j := uint64(0); j < 8; j++ {
			q.Schedule(c+j, Event{Kind: DRAMDispatch, Unit: uint32(j)})
		}
		q.RunDue(c + 7)
		c += 8
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule/RunDue allocates %.1f per round, want 0", allocs)
	}
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

// TestSeqCountsEverySchedule pins the sequence counter: it counts every
// Schedule call (heap and same-cycle FIFO paths alike), survives RunDue,
// and Clone continues it — so a forked simulator's post-fork events
// keep the (cycle, seq) order the parent would have given them.
func TestSeqCountsEverySchedule(t *testing.T) {
	q := newActions()
	if q.q.seq != 0 {
		t.Fatalf("fresh queue seq = %d, want 0", q.q.seq)
	}
	q.at(5, func(uint64) {})
	q.at(3, func(uint64) {})
	if q.q.seq != 2 {
		t.Fatalf("seq = %d after 2 schedules, want 2", q.q.seq)
	}
	// A callback scheduling same-cycle work uses the FIFO fast path —
	// it must count too.
	q.at(7, func(c uint64) { q.at(c, func(uint64) {}) })
	q.q.RunDue(7)
	if q.q.seq != 4 {
		t.Fatalf("seq = %d after drain with one same-cycle schedule, want 4", q.q.seq)
	}
	if c := q.q.Clone(); c.seq != q.q.seq {
		t.Fatalf("Clone seq = %d, want %d", c.seq, q.q.seq)
	}
}

// TestCloneCopiesPendingEvents: a clone fires the source's pending
// events in the source's order, and scheduling on either queue leaves
// the other untouched.
func TestCloneCopiesPendingEvents(t *testing.T) {
	var src Queue
	for _, c := range []uint64{9, 3, 7, 3, 5} {
		src.Schedule(c, Event{Kind: WalkStep, Arg: c})
	}
	fired := func(q *Queue) []uint64 {
		var got []uint64
		q.SetHandler(func(at uint64, ev Event) { got = append(got, at*100+ev.Arg) })
		q.RunDue(100)
		return got
	}
	cl := src.Clone()
	cl.Schedule(4, Event{Arg: 4})
	src.Schedule(6, Event{Arg: 6})
	got, want := fired(cl), []uint64{303, 303, 404, 505, 707, 909}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("clone fired %v, want %v", got, want)
	}
	got, want = fired(&src), []uint64{303, 303, 505, 606, 707, 909}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("source fired %v after clone, want %v", got, want)
	}
}

// actions wires a queue to test closures: each scheduled event's Arg
// indexes fns, so tests can observe firing order and cycles.
type actions struct {
	q   Queue
	fns []func(uint64)
}

func newActions() *actions {
	a := &actions{}
	a.q.SetHandler(func(c uint64, ev Event) { a.fns[ev.Arg](c) })
	return a
}

// at schedules fn to run at cycle.
func (a *actions) at(cycle uint64, fn func(uint64)) {
	a.fns = append(a.fns, fn)
	a.q.Schedule(cycle, Event{Arg: uint64(len(a.fns) - 1)})
}
