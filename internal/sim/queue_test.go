package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refEvent is one pending event of the reference queue.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// queueHarness drives an Engine and a reference queue, kept sorted by
// (at, seq), through the same random schedule and checks that every
// event fires in the reference's order, at its time, with Pending exact.
type queueHarness struct {
	t       *testing.T
	e       *Engine
	rng     *rand.Rand
	ref     []refEvent
	seq     uint64
	next    int // id of the next scheduled event
	fired   int
	limit   int // events scheduled by handlers stop here
	stopped bool
}

func (h *queueHarness) schedule(at Time) {
	h.seq++
	id := h.next
	h.next++
	h.ref = append(h.ref, refEvent{at: at, seq: h.seq, id: id})
	sort.Slice(h.ref, func(i, j int) bool {
		a, b := h.ref[i], h.ref[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	})
	if h.rng.Intn(2) == 0 {
		h.e.At(at, func() { h.fire(id) })
	} else {
		h.e.AtArg(at, h.fireArg, id)
	}
}

func (h *queueHarness) fireArg(arg any) { h.fire(arg.(int)) }

func (h *queueHarness) fire(id int) {
	if len(h.ref) == 0 {
		h.t.Fatalf("event %d fired with the reference queue empty", id)
	}
	want := h.ref[0]
	h.ref = h.ref[1:]
	if id != want.id || h.e.Now() != want.at {
		h.t.Fatalf("fired event %d at %v, want event %d at %v", id, h.e.Now(), want.id, want.at)
	}
	h.fired++
	h.checkPending()
	// Children: often at now (same batch timestamp), else on a coarse
	// grid so that timestamps collide.
	if h.next < h.limit {
		for n := h.rng.Intn(3); n > 0; n-- {
			if h.rng.Intn(3) == 0 {
				h.schedule(h.e.Now())
			} else {
				h.schedule(h.e.Now() + Time(h.rng.Intn(4)))
			}
		}
	}
	if h.rng.Float64() < 0.01 { // a Stop about every hundred events
		h.e.Stop()
		h.stopped = true
	}
}

func (h *queueHarness) checkPending() {
	if got := h.e.Pending(); got != len(h.ref) {
		h.t.Fatalf("Pending() = %d, reference holds %d", got, len(h.ref))
	}
}

// resume checks that a stopped engine does nothing, then restarts it.
func (h *queueHarness) resume() {
	if !h.stopped {
		return
	}
	before := h.fired
	if h.e.Step() {
		h.t.Fatal("Step ran an event on a stopped engine")
	}
	h.e.Run(0)
	if h.fired != before {
		h.t.Fatal("a second Run after Stop executed events")
	}
	h.checkPending()
	h.e.stopped = false
	h.stopped = false
}

// TestQueueMatchesReference is the randomized differential test of the
// event queue: mixed At/AtArg, equal timestamps, handlers scheduling at
// now during a batch, Stop in the middle of a batch followed by further
// Runs, and Step interleaved with Run (with and without a horizon).
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		h := &queueHarness{t: t, e: New(seed), rng: rand.New(rand.NewSource(seed)), limit: 3000}
		for i := 0; i < 50; i++ {
			h.schedule(Time(h.rng.Intn(20)))
		}
		for len(h.ref) > 0 {
			h.resume()
			switch h.rng.Intn(3) {
			case 0:
				for n := h.rng.Intn(5); n > 0 && len(h.ref) > 0 && !h.stopped; n-- {
					if !h.e.Step() {
						t.Fatal("Step returned false with events pending")
					}
				}
			case 1:
				until := h.e.Now() + 0.5 + Time(h.rng.Intn(4))
				final := h.e.Run(until)
				if !h.stopped && len(h.ref) > 0 {
					if h.ref[0].at <= until || final != until {
						t.Fatalf("Run(%v) returned %v with the next event at %v", until, final, h.ref[0].at)
					}
				}
			default:
				h.e.Run(0)
				if !h.stopped && len(h.ref) > 0 {
					t.Fatalf("Run(0) returned with %d events pending", len(h.ref))
				}
			}
			h.checkPending()
		}
		if h.e.Processed != uint64(h.fired) || h.fired != h.next {
			t.Fatalf("seed %d: processed %d, fired %d, scheduled %d", seed, h.e.Processed, h.fired, h.next)
		}
	}
}

// TestQueueSteadyStateAllocs checks that scheduling and running events
// allocates nothing once the heap and the payload slab have grown:
// freed slots are reused.
func TestQueueSteadyStateAllocs(t *testing.T) {
	e := New(1)
	nop := func(any) {}
	fn := func() {}
	for i := 0; i < 300; i++ {
		e.AfterArg(float64(i%7), nop, nil)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.AfterArg(3, nop, nil)
		e.Step()
	}); allocs != 0 {
		t.Errorf("AfterArg+Step: %v allocs per event, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.After(3, fn)
		e.Step()
	}); allocs != 0 {
		t.Errorf("After+Step: %v allocs per event, want 0", allocs)
	}
	if slots := len(e.slots); slots > 301 {
		t.Errorf("payload slab grew to %d slots for 301 live events", slots)
	}
}

// TestQueueKeyHoldsNoPointers checks that the heap's element type is
// pointer-free, so sifting the heap never pays a GC write barrier.
func TestQueueKeyHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Engine{}.heap).Elem()
	if p := pointerPath(typ); p != "" {
		t.Errorf("heap element %v holds a pointer at %s", typ, p)
	}
}

// pointerPath returns where typ holds a pointer, or "" when it holds none.
func pointerPath(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return typ.String()
	case reflect.Array:
		if typ.Len() > 0 {
			return pointerPath(typ.Elem())
		}
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if p := pointerPath(typ.Field(i).Type); p != "" {
				return typ.Field(i).Name + "." + p
			}
		}
	}
	return ""
}
