package ip6

import (
	"sync"
	"sync/atomic"
)

// ShardedMap is a map[Addr]V partitioned into AddrShards disjoint maps by
// ShardOf — the keyed counterpart of ShardedSet. It exists so that
// per-address bookkeeping (the service's active-target store) can live
// shard-aligned with the scan engine's batch delivery: each shard may be
// written by at most one goroutine at a time, so per-shard sweeps need no
// locking, and any consumer that merges derived state in canonical shard
// order is deterministic by construction.
//
// The zero value is not ready for use; call NewShardedMap.
type ShardedMap[V any] struct {
	shards [AddrShards]map[Addr]V
}

// NewShardedMap returns an empty ShardedMap. Shard maps are allocated
// lazily on first insert.
func NewShardedMap[V any]() *ShardedMap[V] { return &ShardedMap[V]{} }

// Get returns the value stored for a.
func (m *ShardedMap[V]) Get(a Addr) (V, bool) { return m.GetInShard(ShardOf(a), a) }

// GetInShard returns the value stored for a in shard i, skipping the
// shard hash when the caller already knows it.
func (m *ShardedMap[V]) GetInShard(i int, a Addr) (V, bool) {
	var zero V
	sh := m.shards[i]
	if sh == nil {
		return zero, false
	}
	v, ok := sh[a]
	if !ok {
		return zero, false
	}
	return v, true
}

// Put stores v for a in its canonical shard. Not safe for concurrent
// use — use PutInShard from per-shard workers instead.
func (m *ShardedMap[V]) Put(a Addr, v V) { m.PutInShard(ShardOf(a), a, v) }

// PutInShard stores v for a in shard i. The caller must ensure
// ShardOf(a) == i and that no other goroutine touches shard i
// concurrently.
func (m *ShardedMap[V]) PutInShard(i int, a Addr, v V) {
	if m.shards[i] == nil {
		m.shards[i] = make(map[Addr]V)
	}
	m.shards[i][a] = v
}

// Delete removes a; it reports whether a was present. Not safe for
// concurrent use — use DeleteInShard from per-shard workers instead.
func (m *ShardedMap[V]) Delete(a Addr) bool { return m.DeleteInShard(ShardOf(a), a) }

// DeleteInShard removes a from shard i under the same contract as
// PutInShard. Deleting the key most recently yielded by WalkShard is
// safe (Go map deletion during range).
func (m *ShardedMap[V]) DeleteInShard(i int, a Addr) bool {
	sh := m.shards[i]
	if sh == nil {
		return false
	}
	if _, ok := sh[a]; !ok {
		return false
	}
	delete(sh, a)
	return true
}

// Len returns the total entry count across shards.
func (m *ShardedMap[V]) Len() int {
	n := 0
	for _, sh := range m.shards {
		n += len(sh)
	}
	return n
}

// ShardLen returns the entry count of shard i.
func (m *ShardedMap[V]) ShardLen(i int) int { return len(m.shards[i]) }

// WalkShard visits every entry of shard i in map order (unspecified); fn
// returning false stops the walk. fn may delete the entry it was called
// with via DeleteInShard.
func (m *ShardedMap[V]) WalkShard(i int, fn func(Addr, V) bool) {
	for a, v := range m.shards[i] {
		if !fn(a, v) {
			return
		}
	}
}

// Walk visits every entry, shard by shard in canonical order; fn
// returning false stops the walk.
func (m *ShardedMap[V]) Walk(fn func(Addr, V) bool) {
	for i := range m.shards {
		for a, v := range m.shards[i] {
			if !fn(a, v) {
				return
			}
		}
	}
}

// ParallelShards runs fn for every shard index in [0, AddrShards) on up
// to workers goroutines, returning when all shards are done. Shard
// indices are handed out atomically, so each fn(i) runs exactly once and
// two invocations never share a shard — the locking-free contract every
// sharded structure in this package relies on. workers <= 1 runs inline
// on the calling goroutine with no goroutine overhead, so serial
// configurations pay nothing for the parallel plumbing. Callers must
// merge any cross-shard state in canonical shard order afterwards to
// stay deterministic.
func ParallelShards(workers int, fn func(shard int)) {
	if workers > AddrShards {
		workers = AddrShards
	}
	if workers <= 1 {
		for sh := 0; sh < AddrShards; sh++ {
			fn(sh)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= AddrShards {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ShardPipeline runs per-shard work on a bounded worker pool while a
// single consumer takes the results in canonical shard order — the shape
// of a checkpoint, whose payload bytes must not depend on the worker
// count. Each of its slots owns a buffer of type B that is reused across
// shards and across runs. The zero value is ready to use; one pipeline
// serves one Run at a time.
type ShardPipeline[B any] struct {
	slots []B
}

// pipelineWindow is how many shards Run with the given worker count may
// hold prepared and not yet consumed.
func pipelineWindow(workers int) int { return max(min(2*workers, AddrShards/2), 1) }

// Run calls prepare for every shard on up to workers goroutines, and
// consume for each prepared shard on the calling goroutine in ascending
// shard order: consume sees shard i only after it returned for every
// lower shard. Both get the shard's slot buffer; prepare fills it,
// consume reads it. At most 2×workers shards, and never more than
// AddrShards/2, are prepared and not yet consumed at any moment, so the
// buffers never hold a copy of a whole set. The first error from prepare
// or consume, in shard order, stops the run; Run returns it once every
// goroutine it started has exited. workers <= 1 runs inline with one
// buffer.
func (p *ShardPipeline[B]) Run(workers int, prepare, consume func(sh int, buf *B) error) error {
	window := pipelineWindow(workers)
	workers = min(workers, window)
	if len(p.slots) < window {
		p.slots = append(p.slots, make([]B, window-len(p.slots))...)
	}
	if workers <= 1 {
		buf := &p.slots[0]
		for sh := 0; sh < AddrShards; sh++ {
			if err := prepare(sh, buf); err != nil {
				return err
			}
			if err := consume(sh, buf); err != nil {
				return err
			}
		}
		return nil
	}

	// Shard k uses slot k % window. A worker takes a token from free
	// before claiming a shard, and the consumer returns one after
	// consuming a shard, so a claim is never more than window shards
	// ahead of the consumer: slot k % window is free once shard k-window
	// has been consumed, and each ready channel holds at most one result.
	free := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		free <- struct{}{}
	}
	ready := make([]chan error, window)
	for i := range ready {
		ready[i] = make(chan error, 1)
	}
	stop := make(chan struct{})
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-free:
				}
				k := int(next.Add(1)) - 1
				if k >= AddrShards {
					return
				}
				slot := k % window
				ready[slot] <- prepare(k, &p.slots[slot])
			}
		}()
	}
	var err error
	for k := 0; k < AddrShards && err == nil; k++ {
		slot := k % window
		if err = <-ready[slot]; err == nil {
			err = consume(k, &p.slots[slot])
		}
		free <- struct{}{}
	}
	close(stop)
	wg.Wait()
	return err
}
