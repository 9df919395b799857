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
func ParallelShards(workers int, fn func(shard int)) { Parallel(workers, AddrShards, fn) }

// Parallel runs fn(i) for every i in [0, n) on up to workers goroutines,
// as ParallelShards does for shards: each index exactly once, handed out
// atomically, inline when workers <= 1 or n <= 1.
func Parallel(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
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
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
