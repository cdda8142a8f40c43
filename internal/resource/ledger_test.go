package resource

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestBucketPublishedReadsMatchReference replays random ledger traffic
// and checks, after every operation, that the lock-free Available and
// Capacity equal a reference capacity − reserved bit for bit.
func TestBucketPublishedReadsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 50 + 100*rng.Float64()
		b := NewBucket(CPU, capacity)
		var reserved float64
		ledger := map[ReservationID]float64{}
		check := func(op string) {
			t.Helper()
			if got, want := b.Capacity(), capacity; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d after %s: Capacity() = %v, want %v", seed, op, got, want)
			}
			if got, want := b.Available(), capacity-reserved; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d after %s: Available() = %v, want %v", seed, op, got, want)
			}
		}
		check("NewBucket")
		for i := 0; i < 2000; i++ {
			id := ReservationID(fmt.Sprint("r", rng.Intn(12)))
			switch r := rng.Intn(10); {
			case r < 5:
				amount := 20 * rng.Float64()
				if rng.Intn(8) == 0 {
					amount = 0
				}
				err := b.Reserve(id, amount)
				_, live := ledger[id]
				if ok := amount == 0 || (!live && reserved+amount <= capacity); ok != (err == nil) {
					t.Fatalf("seed %d: Reserve(%s, %v) = %v, reference ok = %v", seed, id, amount, err, ok)
				}
				if err == nil && amount > 0 {
					reserved += amount
					ledger[id] = amount
				}
			case r < 9:
				amt, live := ledger[id]
				if got := b.Release(id); got != amt {
					t.Fatalf("seed %d: Release(%s) = %v, want %v", seed, id, got, amt)
				}
				if live {
					delete(ledger, id)
					reserved -= amt
					if reserved < 0 || len(ledger) == 0 {
						reserved = 0
					}
				}
			default:
				capacity = 50 + 100*rng.Float64()
				b.SetCapacity(capacity)
			}
			check(fmt.Sprint("op ", i))
		}
		for id := range ledger {
			b.Release(id)
		}
		if math.Float64bits(b.Available()) != math.Float64bits(b.Capacity()) {
			t.Fatalf("seed %d: drained bucket Available() = %v, Capacity() = %v", seed, b.Available(), b.Capacity())
		}
	}
}

// TestBucketConcurrentReadsDuringWrites runs lock-free readers against
// writers that reserve, release and resize; run it under -race. Every
// value a reader loads must be one a writer could have published.
func TestBucketConcurrentReadsDuringWrites(t *testing.T) {
	const (
		writers   = 4
		perWriter = 5 // live reservations per writer, 1 unit each
		rounds    = 2000
	)
	caps := [2]float64{100, 200}
	s := NewSet(V(KV{CPU, caps[0]}, KV{Memory, caps[0]}))
	b := s.Manager(CPU).(*Bucket)
	var writersWG, readersWG sync.WaitGroup
	done := make(chan struct{})
	bad := make(chan string, 1)
	report := func(msg string) {
		select {
		case bad <- msg:
		default:
		}
	}
	for r := 0; r < 2; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				c, a := b.Capacity(), b.Available()
				if c != caps[0] && c != caps[1] {
					report(fmt.Sprintf("Capacity() = %v, never published", c))
				}
				if a > caps[1] || a < caps[0]-writers*perWriter {
					report(fmt.Sprintf("Available() = %v, out of range", a))
				}
				if v := s.Available(); v[CPU] > caps[1] || v[Memory] > caps[1] {
					report(fmt.Sprintf("Set.Available() = %v, out of range", v))
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < rounds; i++ {
				id := ReservationID(fmt.Sprintf("w%d/%d", w, i%perWriter))
				if i >= perWriter {
					s.Release(id)
				}
				if err := s.Reserve(id, V(KV{CPU, 1}, KV{Memory, 1})); err != nil {
					report(fmt.Sprintf("Reserve(%s): %v", id, err))
				}
				if i%50 == 0 {
					b.SetCapacity(caps[(i/50)%2])
				}
			}
			for i := 0; i < perWriter; i++ {
				s.Release(ReservationID(fmt.Sprintf("w%d/%d", w, i)))
			}
		}(w)
	}
	writersWG.Wait()
	close(done)
	readersWG.Wait()
	select {
	case msg := <-bad:
		t.Fatal(msg)
	default:
	}
	b.SetCapacity(caps[1])
	if got := b.Available(); math.Float64bits(got) != math.Float64bits(caps[1]) {
		t.Errorf("drained bucket Available() = %v, want %v", got, caps[1])
	}
	if got, want := s.Available(), s.Capacity(); got != want {
		t.Errorf("leaked reservations: %v vs %v", got, want)
	}
}

// BenchmarkSetAvailable measures Set.Available, the read on every
// heartbeat, CFP, adaptation utilisation scan and stats sample.
func BenchmarkSetAvailable(b *testing.B) {
	s := NewSet(V(KV{CPU, 1000}, KV{Memory, 512}, KV{NetBW, 2000}, KV{Energy, 5000}, KV{Storage, 64}))
	if err := s.Reserve("svc/t1", V(KV{CPU, 100}, KV{Memory, 32})); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vectorSink = s.Available()
	}
}

// vectorSink keeps BenchmarkSetAvailable's reads from being optimised away.
var vectorSink Vector

// BenchmarkSetReserveRelease measures one all-or-nothing vector
// reservation and its release.
func BenchmarkSetReserveRelease(b *testing.B) {
	s := NewSet(V(KV{CPU, 1000}, KV{Memory, 512}, KV{NetBW, 2000}, KV{Energy, 5000}, KV{Storage, 64}))
	demand := V(KV{CPU, 100}, KV{Memory, 32}, KV{NetBW, 250})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Reserve("svc/t1", demand); err != nil {
			b.Fatal(err)
		}
		s.Release("svc/t1")
	}
}
