// Package event provides the deterministic future-event queue that drives
// the cycle-approximate simulator. Events are ordered by (cycle, insertion
// sequence) so ties resolve in FIFO order regardless of heap internals,
// keeping simulations reproducible.
//
// The queue is a monomorphic binary heap — items are stored and moved as
// plain structs, never boxed through an interface — so steady-state
// scheduling performs no per-event allocations. Events scheduled for the
// cycle currently being drained (same-cycle cascades: MSHR completions,
// coalesced-fault wakeups) skip the heap entirely and go through a FIFO
// append buffer.
package event

// Func is the callback invoked when an event fires. It receives the cycle
// at which it fires.
type Func func(cycle uint64)

type item struct {
	cycle uint64
	seq   uint64
	fn    Func
}

// less orders items by (cycle, seq): earliest cycle first, FIFO on ties.
func (it item) less(o item) bool {
	if it.cycle != o.cycle {
		return it.cycle < o.cycle
	}
	return it.seq < o.seq
}

// Queue is a future-event list. The zero value is ready to use. Queue is
// not safe for concurrent use; the simulator is single-goroutine by design.
type Queue struct {
	h   []item
	seq uint64

	// Same-cycle fast path: while RunDue(cycle) is draining, events
	// scheduled for exactly that cycle append here instead of entering
	// the heap. Heap items at the drain cycle always predate (and so
	// order before) every item in due; due itself is FIFO by
	// construction — together this preserves exact (cycle, seq) order.
	running bool
	now     uint64
	due     []item
	dueHead int
}

// push adds it to the heap, restoring the heap invariant bottom-up.
func (q *Queue) push(it item) {
	q.h = append(q.h, it)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].less(q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// pop removes and returns the minimum item, restoring the invariant
// top-down.
func (q *Queue) pop() item {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = item{} // release the callback reference
	q.h = q.h[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.h[right].less(q.h[left]) {
			child = right
		}
		if !q.h[child].less(q.h[i]) {
			break
		}
		q.h[i], q.h[child] = q.h[child], q.h[i]
		i = child
	}
	return top
}

// Schedule registers fn to run at the given absolute cycle.
func (q *Queue) Schedule(cycle uint64, fn Func) {
	q.seq++
	if q.running && cycle == q.now {
		q.due = append(q.due, item{cycle: cycle, seq: q.seq, fn: fn})
		return
	}
	q.push(item{cycle: cycle, seq: q.seq, fn: fn})
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) + len(q.due) - q.dueHead }

// CloneEmpty returns a fresh queue with no pending events that continues
// the receiver's sequence numbering. Forked simulators use it so that the
// relative (cycle, seq) order of events scheduled after the fork matches
// the order a cold run would have produced: both start from the same
// sequence point, and callbacks cannot observe absolute sequence values.
// The receiver is not modified and shares no state with the clone.
func (q *Queue) CloneEmpty() *Queue { return &Queue{seq: q.seq} }

// NextCycle returns the cycle of the earliest pending event. ok is false
// when the queue is empty.
func (q *Queue) NextCycle() (cycle uint64, ok bool) {
	if q.dueHead < len(q.due) {
		// Only reachable mid-drain; due items are all at q.now, which is
		// never later than any heap item still due.
		return q.due[q.dueHead].cycle, true
	}
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].cycle, true
}

// RunDue pops and runs every event scheduled at or before cycle, in
// (cycle, seq) order. Events scheduled by callbacks for cycles <= cycle
// also run. It returns the number of events fired.
func (q *Queue) RunDue(cycle uint64) int {
	n := 0
	q.running, q.now = true, cycle
	for {
		// Heap items due now always order before the same-cycle FIFO:
		// earlier cycles dominate outright, and heap items at exactly
		// `cycle` carry smaller sequence numbers than anything appended
		// to due during this drain.
		if len(q.h) > 0 && q.h[0].cycle <= cycle {
			it := q.pop()
			it.fn(it.cycle)
			n++
			continue
		}
		if q.dueHead < len(q.due) {
			it := q.due[q.dueHead]
			q.due[q.dueHead] = item{} // release the callback reference
			q.dueHead++
			it.fn(it.cycle)
			n++
			continue
		}
		break
	}
	q.due = q.due[:0]
	q.dueHead = 0
	q.running = false
	return n
}
