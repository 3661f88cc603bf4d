package server

import (
	"context"
	"sync"
)

// flight is one in-progress computation shared by every request that asked
// for the same key while it ran. done closes when bytes/err are final.
//
// Every flight carries a cancellable context and a waiter count: when
// every attached request has abandoned the flight, the computation itself
// is cancelled so its pool slot frees up. Shard requests abandon on
// disconnect — a speculation race was lost, or the coordinator cancelled
// the sweep — so nobody burns a slot on rows nobody will read. The sweep
// handler never abandons, so sweep flights run detached and the result
// still lands in the cache for the next asker.
type flight struct {
	done  chan struct{}
	bytes []byte
	err   error

	ctx     context.Context
	cancel  context.CancelFunc
	waiters int
}

// flightGroup coalesces concurrent identical requests: the first caller
// for a key becomes the leader and computes; everyone else waits on the
// leader's flight. This is the singleflight pattern, hand-rolled because
// the repo is stdlib-only.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// lease returns the flight for key and whether the caller is its leader.
// The leader must call complete exactly once. The flight's context derives
// from base and is cancelled by the last abandon: a caller that stops
// waiting before the flight completes must call abandon exactly once. A
// flight every waiter abandoned is only winding down to context.Canceled,
// so a new caller for its key leads a fresh flight instead of joining it.
func (g *flightGroup) lease(key string, base context.Context) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok && f.waiters > 0 {
		f.waiters++
		return f, false
	}
	ctx, cancel := context.WithCancel(base)
	f := &flight{done: make(chan struct{}), ctx: ctx, cancel: cancel, waiters: 1}
	g.m[key] = f
	return f, true
}

// abandon detaches one waiter from a flight; the last departure cancels
// the computation.
func (g *flightGroup) abandon(f *flight) {
	g.mu.Lock()
	f.waiters--
	last := f.waiters <= 0
	g.mu.Unlock()
	if last {
		f.cancel()
	}
}

// active reports whether any flight is computing for the canonical hash:
// the sweep flight keyed by the hash itself, or any shard flight keyed by
// the hash extended with a trial range. The SSE drain path uses it to
// decide whether a subscriber still has a completion to wait for.
func (g *flightGroup) active(hash string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.m[hash]; ok {
		return true
	}
	for k := range g.m {
		if len(k) > len(hash) && k[:len(hash)] == hash && k[len(hash)] == ':' {
			return true
		}
	}
	return false
}

// complete publishes the leader's outcome and retires the flight: later
// requests for the key start fresh (and will hit the cache instead). An
// abandoned flight may already have been replaced by a fresh one, which
// stays registered.
func (g *flightGroup) complete(key string, f *flight, b []byte, err error) {
	f.bytes, f.err = b, err
	g.mu.Lock()
	if g.m[key] == f {
		delete(g.m, key)
	}
	g.mu.Unlock()
	f.cancel()
	close(f.done)
}
