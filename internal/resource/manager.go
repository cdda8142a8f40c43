package resource

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// ReservationID identifies a reservation within one node; the convention
// throughout the repo is "service/task" or "service/task#attempt".
type ReservationID string

// Manager is the paper's Resource Manager: the object that manages one
// particular resource and grants specific amounts to requesting tasks.
// Implementations must be safe for concurrent use (the live runtime calls
// them from per-node goroutines, the negotiation hold timers from timer
// goroutines). Bucket makes writes under a lock and reads without one:
// Capacity and Available load one published word each.
type Manager interface {
	// Kind identifies the managed resource.
	Kind() Kind
	// Capacity is the total manageable amount.
	Capacity() float64
	// Available is the currently unreserved amount.
	Available() float64
	// Reserve grants amount to id, or returns *InsufficientError when
	// the capacity does not cover it. Reserving again under a live id is
	// an error: ids name one reservation, so that rollback and release
	// are exact.
	Reserve(id ReservationID, amount float64) error
	// Release returns the amount held by id (0 when unknown).
	Release(id ReservationID) float64
}

// Bucket is the basic utilization-style Resource Manager: a capacity and
// a ledger of reservations. The CPU admission test "task set is
// schedulable" (Section 5) reduces to total reserved utilization <=
// capacity, i.e. the classic EDF utilization bound with capacity scaled
// to the node's speed.
//
// Writers (Reserve, Release, SetCapacity) hold the mutex. Each write
// publishes capacity − reserved as one atomic float64 word, and
// SetCapacity also publishes the capacity, so Available and Capacity
// are lock-free loads of the values a locked read would return.
type Bucket struct {
	kind Kind

	// Published math.Float64bits words of the capacity and of
	// capacity − reserved; written only under mu.
	capBits   atomic.Uint64
	availBits atomic.Uint64

	mu       sync.Mutex
	capacity float64
	reserved float64
	ledger   map[ReservationID]float64
}

// NewBucket builds a manager for the given kind and capacity.
func NewBucket(kind Kind, capacity float64) *Bucket {
	if capacity < 0 {
		capacity = 0
	}
	b := &Bucket{kind: kind, capacity: capacity, ledger: make(map[ReservationID]float64)}
	b.capBits.Store(math.Float64bits(capacity))
	b.publish()
	return b
}

// publish stores capacity − reserved for lock-free readers; the caller
// holds b.mu (or owns b exclusively).
func (b *Bucket) publish() {
	b.availBits.Store(math.Float64bits(b.capacity - b.reserved))
}

// Kind implements Manager.
func (b *Bucket) Kind() Kind { return b.kind }

// Capacity implements Manager.
func (b *Bucket) Capacity() float64 {
	return math.Float64frombits(b.capBits.Load())
}

// Available implements Manager.
func (b *Bucket) Available() float64 {
	return math.Float64frombits(b.availBits.Load())
}

// Reserve implements Manager.
func (b *Bucket) Reserve(id ReservationID, amount float64) error {
	if amount < 0 {
		return fmt.Errorf("resource: negative reservation %g for %s", amount, b.kind)
	}
	if amount == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, live := b.ledger[id]; live {
		return fmt.Errorf("resource: reservation %q already live on %s", id, b.kind)
	}
	if b.reserved+amount > b.capacity {
		return &InsufficientError{Kind: b.kind, Want: amount, Have: b.capacity - b.reserved}
	}
	b.reserved += amount
	b.ledger[id] = amount
	b.publish()
	return nil
}

// Release implements Manager.
func (b *Bucket) Release(id ReservationID) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	amt, ok := b.ledger[id]
	if !ok {
		return 0
	}
	delete(b.ledger, id)
	b.reserved -= amt
	if b.reserved < 0 || len(b.ledger) == 0 {
		// An empty ledger means zero usage by definition; snapping to 0
		// discards the float residue a running sum accumulates across
		// interleaved reserve/release pairs, so a drained bucket's
		// available amount returns exactly to its capacity.
		b.reserved = 0
	}
	b.publish()
	return amt
}

// SetCapacity adjusts the capacity at run time (battery decay, congestion
// changes). Existing reservations are never revoked; the available amount
// may temporarily become negative, which only blocks new admissions.
func (b *Bucket) SetCapacity(c float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.capacity = c
	b.capBits.Store(math.Float64bits(c))
	b.publish()
}

// Holders returns the reservation IDs present in the ledger, sorted, for
// diagnostics.
func (b *Bucket) Holders() []ReservationID {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]ReservationID, 0, len(b.ledger))
	for id := range b.ledger {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Battery is an Energy manager whose capacity drains over simulated time.
// Drain is driven explicitly by the simulation (or by the live runtime's
// ticker) so the model stays deterministic.
type Battery struct {
	*Bucket
	mu        sync.Mutex
	drainRate float64 // capacity units per simulated second of idle drain
}

// NewBattery builds an energy manager with the given initial budget and
// idle drain rate (units per second).
func NewBattery(capacity, drainRate float64) *Battery {
	return &Battery{Bucket: NewBucket(Energy, capacity), drainRate: drainRate}
}

// Drain advances the battery by dt seconds of idle consumption.
func (b *Battery) Drain(dt float64) {
	b.mu.Lock()
	rate := b.drainRate
	b.mu.Unlock()
	if rate <= 0 || dt <= 0 {
		return
	}
	c := b.Capacity() - rate*dt
	if c < 0 {
		c = 0
	}
	b.SetCapacity(c)
}

// Set is a node's full complement of Resource Managers, one per kind,
// with an all-or-nothing vector reservation primitive. The QoS Provider
// "rather than reserving resources directly ... will contact the Resource
// Managers to grant specific resource amounts" (Section 4.1); Set is that
// contact surface.
type Set struct {
	mu       sync.Mutex
	managers [NumKinds]Manager
}

// NewSet builds a Set with Bucket managers sized by the capacity vector.
func NewSet(capacity Vector) *Set {
	s := &Set{}
	for i := range s.managers {
		s.managers[i] = NewBucket(Kind(i), capacity[i])
	}
	return s
}

// NewSetWith builds a Set from explicit managers; kinds not provided get
// zero-capacity buckets.
func NewSetWith(managers ...Manager) *Set {
	s := &Set{}
	for _, m := range managers {
		s.managers[m.Kind()] = m
	}
	for i := range s.managers {
		if s.managers[i] == nil {
			s.managers[i] = NewBucket(Kind(i), 0)
		}
	}
	return s
}

// Manager returns the manager for a kind.
func (s *Set) Manager(k Kind) Manager { return s.managers[k] }

// Capacity returns the capacity vector.
func (s *Set) Capacity() Vector {
	var v Vector
	for i, m := range s.managers {
		v[i] = m.Capacity()
	}
	return v
}

// Available returns the available vector.
func (s *Set) Available() Vector {
	var v Vector
	for i, m := range s.managers {
		v[i] = m.Available()
	}
	return v
}

// CanReserve reports whether demand would be granted right now, without
// reserving. Callers racing each other must still handle Reserve errors.
func (s *Set) CanReserve(demand Vector) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, m := range s.managers {
		if demand[i] > 0 && m.Available() < demand[i] {
			return false
		}
	}
	return true
}

// Reserve grants the whole demand vector under id, or grants nothing and
// returns the first failure (all-or-nothing with rollback).
func (s *Set) Reserve(id ReservationID, demand Vector) error {
	if !demand.Nonnegative() {
		return fmt.Errorf("resource: demand %v has negative component", demand)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, m := range s.managers {
		if demand[i] == 0 {
			continue
		}
		if err := m.Reserve(id, demand[i]); err != nil {
			for j := 0; j < i; j++ {
				if demand[j] != 0 {
					s.managers[j].Release(id)
				}
			}
			return err
		}
	}
	return nil
}

// Release frees everything held under id across all managers and returns
// the released vector.
func (s *Set) Release(id ReservationID) Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	var v Vector
	for i, m := range s.managers {
		v[i] = m.Release(id)
	}
	return v
}
