// Package event provides the deterministic future-event queue that drives
// the cycle-approximate simulator. Events are ordered by (cycle, insertion
// sequence) so ties resolve in FIFO order regardless of heap internals,
// keeping simulations reproducible.
//
// An event is plain data: a Kind saying what to do plus the indices that
// name whom to do it to. The queue hands each due event to one Handler,
// bound once by the owner; the simulator's handler is a switch over Kind.
// Because nothing in the queue is a closure, a queue — and with it every
// in-flight operation of the engine — can be copied at any cycle.
//
// The queue is a monomorphic binary heap — items are stored and moved as
// plain structs, never boxed through an interface — so steady-state
// scheduling performs no per-event allocations. Events scheduled for the
// cycle currently being drained (same-cycle cascades: MSHR completions,
// coalesced-fault wakeups) skip the heap entirely and go through a FIFO
// append buffer.
package event

// Kind names what an event does when it fires. Every kind the simulator
// schedules is listed here so its dispatcher's switch is the one place
// that routes them; the zero Kind is a completion nobody waits for.
type Kind uint8

// Event kinds, with the operands each reads from Unit and Arg.
const (
	None         Kind = iota // does nothing when it fires
	DRAMDispatch             // FR-FCFS dispatch on DRAM channel Unit
	DRAMRetry                // clear bank Arg's retry flag, dispatch channel Unit
	WalkStep                 // continue the page walk in walker slot Unit
	WalkFill                 // fill page-walk-cache line Arg, then WalkStep
	WalkDone                 // deliver a finished walk to memory request Arg
	L2Lookup                 // memory request Arg's shared L2 TLB lookup
	Resident                 // resume memory request Arg once its page is resident
	Complete                 // retire memory request Arg's lane
	L1Fill                   // complete SM Unit's L1 cache miss for address Arg
	L2Fill                   // complete the shared L2 cache miss for address Arg
	PageIn                   // land the pager's oldest in-flight page-in
	PageOut                  // retire the pager's oldest in-flight write-back
	DeallocPoll              // run the simulator's periodic dealloc check
)

// Event is one scheduled action. It is a plain value: copying it copies
// the whole action.
type Event struct {
	Kind Kind
	Unit uint32 // component instance: SM, DRAM channel, walker slot, or app
	Arg  uint64 // request handle, address, bank, or fault key
}

// Handler runs one event at the cycle it fires.
type Handler func(cycle uint64, ev Event)

type item struct {
	cycle uint64
	seq   uint64
	ev    Event
}

// less orders items by (cycle, seq): earliest cycle first, FIFO on ties.
func (it item) less(o item) bool {
	if it.cycle != o.cycle {
		return it.cycle < o.cycle
	}
	return it.seq < o.seq
}

// Queue is a future-event list. The zero value is ready to use once a
// handler is set. Queue is not safe for concurrent use; the simulator is
// single-goroutine by design.
type Queue struct {
	h   []item
	seq uint64

	// handler runs every fired event (see SetHandler).
	handler Handler

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

// SetHandler binds the function that runs fired events. The owner binds
// it once at construction; a cloned queue needs its own.
func (q *Queue) SetHandler(h Handler) { q.handler = h }

// Fire runs ev at cycle through the handler immediately, without
// scheduling it. Components use it for continuations that complete
// synchronously (a cache fill waking its MSHR waiters, a landed page
// waking its faulting lanes).
func (q *Queue) Fire(cycle uint64, ev Event) { q.handler(cycle, ev) }

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

// Schedule registers ev to fire at the given absolute cycle.
func (q *Queue) Schedule(cycle uint64, ev Event) {
	q.seq++
	if q.running && cycle == q.now {
		q.due = append(q.due, item{cycle: cycle, seq: q.seq, ev: ev})
		return
	}
	q.push(item{cycle: cycle, seq: q.seq, ev: ev})
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) + len(q.due) - q.dueHead }

// Clone returns a copy of the queue holding the same pending events in
// the same (cycle, seq) order and continuing the same sequence
// numbering, so a forked simulator fires exactly the events the source
// would have. The copy shares no backing array with the receiver and has
// no handler; its owner binds one.
func (q *Queue) Clone() *Queue {
	return &Queue{
		h:       append([]item(nil), q.h...),
		seq:     q.seq,
		running: q.running,
		now:     q.now,
		due:     append([]item(nil), q.due[q.dueHead:]...),
	}
}

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
// (cycle, seq) order. Events scheduled by the handler for cycles <= cycle
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
			q.handler(it.cycle, it.ev)
			n++
			continue
		}
		if q.dueHead < len(q.due) {
			it := q.due[q.dueHead]
			q.dueHead++
			q.handler(it.cycle, it.ev)
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
