package sim

import "testing"

// BenchmarkEventThroughput measures raw scheduler throughput: schedule
// and drain batches of randomly timed events.
func BenchmarkEventThroughput(b *testing.B) {
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(int64(i))
		for j := 0; j < batch; j++ {
			e.At(e.Rand().Float64()*100, func() {})
		}
		e.Run(0)
		if e.Processed != batch {
			b.Fatal("lost events")
		}
	}
}

// BenchmarkCascade measures self-rescheduling chains (the heartbeat and
// battery-drain pattern).
func BenchmarkCascade(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(1)
		n := 0
		var loop func()
		loop = func() {
			n++
			if n < 1000 {
				e.After(0.5, loop)
			}
		}
		e.After(0.5, loop)
		e.Run(0)
		if n != 1000 {
			b.Fatal("chain broke")
		}
	}
}

// BenchmarkPushPop measures one AfterArg plus one Step on a queue held
// at the simulator workload's depth (about 300 pending events): every
// pop is replaced by one push.
func BenchmarkPushPop(b *testing.B) {
	const depth = 300
	e := New(1)
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = e.Rand().ExpFloat64()
	}
	nop := func(any) {}
	for i := 0; i < depth; i++ {
		e.AfterArg(delays[i], nop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterArg(delays[i%len(delays)], nop, nil)
		e.Step()
	}
}
