package tenant

import (
	"context"
	"errors"
	"sync"
)

// ErrQueueFull maps to 503 + Retry-After: the priority class's admission
// queue is at its bound, so accepting the request would only grow an
// unbounded backlog.
var ErrQueueFull = errors.New("tenant: admission queue full")

// waiter is one queued acquisition; grant closes ready exactly once.
type waiter struct {
	ready chan struct{}
}

// Admission is the daemon's priority admission controller: a counting
// semaphore over worker slots fronted by one bounded FIFO queue per
// priority class. Releases grant the head of the highest-priority
// non-empty queue, so interactive work overtakes any amount of queued
// batch work without starving work already running.
type Admission struct {
	mu     sync.Mutex
	slots  int
	free   int
	bound  int
	queues [NumClasses][]*waiter
}

// NewAdmission builds an admission controller over `slots` concurrent
// executions with at most `queueBound` waiters per class (minimums 1).
func NewAdmission(slots, queueBound int) *Admission {
	if slots < 1 {
		slots = 1
	}
	if queueBound < 1 {
		queueBound = 1
	}
	return &Admission{slots: slots, free: slots, bound: queueBound}
}

// Acquire obtains one execution slot at the given priority class,
// blocking until one frees, the class queue is full (ErrQueueFull,
// immediately), or ctx ends. Every successful Acquire must be paired
// with exactly one Release.
func (a *Admission) Acquire(ctx context.Context, c Class) error {
	if c >= NumClasses {
		c = ClassBatch
	}
	a.mu.Lock()
	if a.free > 0 {
		// Invariant: free > 0 implies every queue is empty (releases grant
		// waiters before returning a slot to the pool), so taking the slot
		// directly cannot overtake a queued higher-priority waiter.
		a.free--
		a.mu.Unlock()
		return nil
	}
	if len(a.queues[c]) >= a.bound {
		a.mu.Unlock()
		return ErrQueueFull
	}
	w := &waiter{ready: make(chan struct{})}
	a.queues[c] = append(a.queues[c], w)
	a.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		if !a.removeLocked(c, w) {
			// Lost the race: a release granted us between ctx.Done firing
			// and the lock. Pass the slot on instead of leaking it.
			a.releaseLocked()
		}
		a.mu.Unlock()
		return ctx.Err()
	}
}

// Release returns a slot, granting it to the longest-waiting acquirer of
// the highest-priority non-empty class.
func (a *Admission) Release() {
	a.mu.Lock()
	a.releaseLocked()
	a.mu.Unlock()
}

func (a *Admission) releaseLocked() {
	for c := range a.queues {
		if len(a.queues[c]) > 0 {
			w := a.queues[c][0]
			a.queues[c] = a.queues[c][1:]
			close(w.ready)
			return
		}
	}
	a.free++
}

// removeLocked unlinks a waiter that gave up; false means it was already
// granted.
func (a *Admission) removeLocked(c Class, w *waiter) bool {
	for i, q := range a.queues[c] {
		if q == w {
			a.queues[c] = append(a.queues[c][:i], a.queues[c][i+1:]...)
			return true
		}
	}
	return false
}

// Depths returns the per-class queue depths, for the
// blitzd_admission_queue_depth gauges.
func (a *Admission) Depths() [NumClasses]int {
	var d [NumClasses]int
	a.mu.Lock()
	for c := range a.queues {
		d[c] = len(a.queues[c])
	}
	a.mu.Unlock()
	return d
}

// Busy returns the number of slots currently held, for the
// blitzd_workers_busy gauge.
func (a *Admission) Busy() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(a.slots - a.free)
}

// QueueTotal returns the total number of queued waiters across classes.
func (a *Admission) QueueTotal() int64 {
	var total int64
	for _, d := range a.Depths() {
		total += int64(d)
	}
	return total
}
