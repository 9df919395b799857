package ip6

import (
	"sync"
	"sync/atomic"
)

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
