package main

import (
	"container/heap"
	"math"
	"runtime"
	"strconv"
	"time"
)

// The host is shared, and its speed drifts over minutes: ten 55 s runs
// of sim-adapt-churn on a 2-CPU VM simulated from 2600 to 3750
// sessions per host second. So the host-time end-to-end metrics of the
// simulator workload are rescaled by the host's speed on a fixed
// reference kernel, timed in slices between the neighbourhood runs. The
// kernel is a small event loop: a binary heap of timed events, a map of
// state keyed by event, small allocations and key formatting, the mix
// the simulator spends its time on. It lives in the benchmark, so a
// change to the program cannot change it.
//
// The kernel reacts more to the host than the simulator does. Over 30
// such runs the least-squares slope of the log of the simulator's host
// time on the log of the run's median slice time was 0.67 for time per
// session, 0.56 for the formation p50 and 0.59 for the p99 (correlation
// 0.95, 0.83, 0.85). A rescaled time is the measured time times
// (refSlice / median slice time) to the power hostElasticity: the time
// on a host on which one slice takes refSlice.

// refSlice is the slice time the rescaled metrics assume: about the
// median of calSlice on a quiet 2-CPU VM (Xeon, 2.1 GHz).
const refSlice = 10 * time.Millisecond

// hostElasticity is how much of a change in slice time the simulator's
// host time follows, on the log scale: 0.6, between the measured slopes
// above.
const hostElasticity = 0.6

// calEvents is the work of one slice.
const calEvents = 24000

type calEvent struct {
	at   float64
	key  uint32
	body []byte
}

type calQueue []*calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calSink keeps the kernel's result alive.
var calSink float64

// calSlice runs one slice of the reference kernel, from a collected
// heap, and returns its wall time. Every slice does the same work. Its
// garbage is collected afterwards, untimed, so that none of it falls
// into what the benchmark times next.
func calSlice() time.Duration {
	runtime.GC()
	defer runtime.GC()
	t0 := time.Now()
	q := make(calQueue, 0, 256)
	state := make(map[uint32]float64, 4096)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 256; i++ {
		heap.Push(&q, &calEvent{at: float64(i), key: uint32(i)})
	}
	var key []byte
	for i := 0; i < calEvents; i++ {
		e := heap.Pop(&q).(*calEvent)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		state[uint32(x%4096)] += e.at
		key = strconv.AppendUint(append(key[:0], "ev-"...), uint64(e.key%997), 10)
		calSink += float64(len(key) + len(e.body))
		heap.Push(&q, &calEvent{at: e.at + float64(x%1000)/100, key: uint32(x >> 40), body: make([]byte, 48+x%64)})
	}
	return time.Since(t0)
}

// speedScale returns the factor by which a host time measured among
// slices (seconds) is divided to give reference time.
func speedScale(slices []float64) float64 {
	return math.Pow(median(slices)/refSlice.Seconds(), hostElasticity)
}
