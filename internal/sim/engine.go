// Package sim is a deterministic discrete-event simulation engine: a
// virtual clock, a binary-heap event queue with stable FIFO ordering for
// simultaneous events, and a seeded random source. All experiment tables
// in this repository are produced on this engine so that every number is
// reproducible from a seed.
//
// The queue is split in two. The binary heap holds only pointer-free
// keys (time, schedule sequence, slot), so sifting it never pays a
// garbage-collector write barrier; sifts shift a hole instead of
// swapping. Each event's handler and argument live in a slab slot,
// written once when the event is scheduled and cleared once when it
// runs; freed slots are reused through a free list, so steady-state
// scheduling allocates nothing. The AtArg/AfterArg variants let callers
// schedule a shared handler with a pooled argument instead of
// allocating a fresh closure per event; At stores its closure as the
// argument of one shared trampoline. Run applies events in per-tick
// batches of keys drained into a reused buffer, so every event sharing
// one timestamp is executed in one pass over the heap.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// key is one heap entry: the (at, seq) order plus the slab slot of the
// event's payload. It holds no pointers.
type key struct {
	at   Time
	seq  uint64
	slot uint32
}

// less orders keys by (time, schedule sequence): stable FIFO for
// simultaneous events.
func (k key) less(o key) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// payload is a scheduled event's handler and argument.
type payload struct {
	fn  func(any)
	arg any
}

// runFunc is the shared trampoline of At: its argument is the closure.
func runFunc(fn any) { fn.(func())() }

// Engine drives a single-threaded simulation. It is intentionally not
// safe for concurrent use: determinism comes from the single event loop.
type Engine struct {
	now     Time
	seq     uint64
	heap    []key
	slots   []payload // event payloads, indexed by key.slot
	free    []uint32  // unused slots
	batch   []key     // reused per-tick batch buffer
	nbatch  int       // batch entries not yet executed (for Pending)
	rng     *rand.Rand
	stopped bool

	// Processed counts executed events, for overhead reporting.
	Processed uint64
}

// New builds an engine seeded deterministically.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn at absolute time t. Scheduling in the past panics: it
// is always a logic error in the caller.
func (e *Engine) At(t Time, fn func()) { e.AtArg(t, runFunc, fn) }

// AtArg schedules the shared handler fn with arg at absolute time t.
// It is the allocation-free twin of At: callers that would otherwise
// build a fresh closure per event pass one long-lived handler and a
// (typically pooled) argument instead. Ordering and semantics are
// identical to At.
func (e *Engine) AtArg(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	var slot uint32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[slot] = payload{fn, arg}
	} else {
		slot = uint32(len(e.slots))
		e.slots = append(e.slots, payload{fn, arg})
	}
	e.seq++
	e.push(key{at: t, seq: e.seq, slot: slot})
}

// After schedules fn d seconds from now; negative delays clamp to zero.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// AfterArg schedules the shared handler fn with arg d seconds from now;
// negative delays clamp to zero.
func (e *Engine) AfterArg(d float64, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	e.AtArg(e.now+d, fn, arg)
}

// Stop makes Run return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// push inserts k into the heap, shifting parents down into the hole
// until k's place is found.
func (e *Engine) push(k key) {
	h := append(e.heap, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	e.heap = h
}

// pop removes and returns the minimum key, shifting children up into
// the hole left at the root until the last key's place is found.
func (e *Engine) pop() key {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1 // the smaller child
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// fire frees slot and runs the payload it held.
func (e *Engine) fire(slot uint32) {
	p := e.slots[slot]
	e.slots[slot] = payload{} // release fn/arg references
	e.free = append(e.free, slot)
	p.fn(p.arg)
}

// Step executes the next event, returning false when the queue is empty
// or the engine is stopped.
func (e *Engine) Step() bool {
	if e.stopped || len(e.heap) == 0 {
		return false
	}
	k := e.pop()
	e.now = k.at
	e.Processed++
	e.fire(k.slot)
	return true
}

// Run executes events until the queue drains, Stop is called, or the
// clock passes until (until <= 0 means no horizon). It returns the final
// simulated time.
//
// Events are applied in per-tick batches: every key sharing the head
// timestamp is drained into a reused buffer and executed in schedule
// order in one pass, so simultaneous arrivals/departures/timers share a
// single heap drain. Events scheduled during a batch at the same
// timestamp carry higher sequence numbers and run in the next batch —
// exactly the (time, sequence) order of one-at-a-time stepping.
func (e *Engine) Run(until Time) Time {
	for !e.stopped && len(e.heap) > 0 {
		next := e.heap[0].at
		if until > 0 && next > until {
			e.now = until
			break
		}
		// Drain the tick's batch; pop order is ascending (at, seq).
		e.batch = e.batch[:0]
		for len(e.heap) > 0 && e.heap[0].at == next {
			e.batch = append(e.batch, e.pop())
		}
		e.now = next
		e.nbatch = len(e.batch)
		for i, k := range e.batch {
			if e.stopped {
				// Reinsert the unexecuted tail, slots still held, so Stop
				// leaves the queue exactly as one-at-a-time stepping would.
				for _, rest := range e.batch[i:] {
					e.push(rest)
				}
				break
			}
			e.Processed++
			e.nbatch--
			e.fire(k.slot)
		}
		e.nbatch = 0
	}
	return e.now
}

// Pending returns the number of queued events, including any events of
// the current tick's batch that have not yet executed.
func (e *Engine) Pending() int { return len(e.heap) + e.nbatch }
