package ip6

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestShardedMapBasics(t *testing.T) {
	m := NewShardedMap[int]()
	addrs := shardedTestAddrs(500)
	for i, a := range addrs {
		m.Put(a, i)
	}
	if m.Len() != len(addrs) {
		t.Fatalf("len %d, want %d", m.Len(), len(addrs))
	}
	for i, a := range addrs {
		v, ok := m.Get(a)
		if !ok || v != i {
			t.Fatalf("get %v = %d,%v want %d", a, v, ok, i)
		}
		if v, ok := m.GetInShard(ShardOf(a), a); !ok || v != i {
			t.Fatalf("GetInShard %v = %d,%v", a, v, ok)
		}
	}
	// Shard lengths partition the total.
	sum := 0
	for sh := 0; sh < AddrShards; sh++ {
		sum += m.ShardLen(sh)
	}
	if sum != m.Len() {
		t.Errorf("shard lengths sum %d, want %d", sum, m.Len())
	}
	// Walk visits every entry once, shards in canonical order.
	seen := 0
	lastShard := -1
	m.Walk(func(a Addr, v int) bool {
		seen++
		if sh := ShardOf(a); sh < lastShard {
			t.Errorf("walk shard order regressed: %d after %d", sh, lastShard)
		} else {
			lastShard = sh
		}
		return true
	})
	if seen != len(addrs) {
		t.Errorf("walk visited %d, want %d", seen, len(addrs))
	}
	// Delete removes exactly the requested entries.
	for _, a := range addrs[:100] {
		if !m.Delete(a) {
			t.Fatalf("delete %v reported absent", a)
		}
		if m.Delete(a) {
			t.Fatalf("double delete %v reported present", a)
		}
	}
	if m.Len() != len(addrs)-100 {
		t.Errorf("len after delete %d", m.Len())
	}
	if _, ok := m.Get(addrs[0]); ok {
		t.Error("deleted entry still present")
	}
}

func TestShardedMapDeleteDuringWalk(t *testing.T) {
	m := NewShardedMap[int]()
	addrs := shardedTestAddrs(300)
	for i, a := range addrs {
		m.Put(a, i)
	}
	for sh := 0; sh < AddrShards; sh++ {
		m.WalkShard(sh, func(a Addr, v int) bool {
			if v%2 == 0 {
				m.DeleteInShard(sh, a)
			}
			return true
		})
	}
	want := 0
	for i := range addrs {
		if i%2 == 1 {
			want++
		}
	}
	if m.Len() != want {
		t.Errorf("len after walk-delete %d, want %d", m.Len(), want)
	}
	m.Walk(func(a Addr, v int) bool {
		if v%2 == 0 {
			t.Errorf("even entry %d survived", v)
		}
		return true
	})
}

func TestParallelShards(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, AddrShards + 5} {
		var hits [AddrShards]atomic.Int32
		ParallelShards(workers, func(sh int) {
			hits[sh].Add(1)
		})
		for sh := range hits {
			if got := hits[sh].Load(); got != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, sh, got)
			}
		}
	}
}

// settleGoroutines waits for the goroutine count to fall back to base:
// a goroutine that has signalled its WaitGroup may still be returning.
func settleGoroutines(t *testing.T, base int, label string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the run", label, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestShardPipelineOrder: with random per-shard delays, consume sees the
// masked shards in ascending order with their own prepared buffers, no
// more than pipelineWindow shards are ever prepared but unconsumed, and no
// goroutine outlives Run — also when a run reuses its pipeline.
func TestShardPipelineOrder(t *testing.T) {
	r := newBenchStream()
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 3, 8, 100} {
		var p ShardPipeline[[]int]
		for _, mask := range []uint64{^uint64(0), 0, 1 << 63, 0x8000_0000_0000_0001, r.Uint64()} {
			var want []int
			for sh := 0; sh < AddrShards; sh++ {
				if mask&(1<<uint(sh)) != 0 {
					want = append(want, sh)
				}
			}
			var delays [AddrShards]time.Duration
			for sh := range delays {
				delays[sh] = time.Duration(r.Uint64n(200)) * time.Microsecond
			}
			window := int32(pipelineWindow(workers))
			var inflight, peak atomic.Int32
			var got []int
			err := p.Run(workers, mask, func(sh int, buf *[]int) error {
				n := inflight.Add(1)
				for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
				}
				time.Sleep(delays[sh])
				*buf = append((*buf)[:0], sh, 3*sh)
				return nil
			}, func(sh int, buf *[]int) error {
				if len(*buf) != 2 || (*buf)[0] != sh || (*buf)[1] != 3*sh {
					t.Errorf("workers %d: shard %d consumed buffer %v", workers, sh, *buf)
				}
				got = append(got, sh)
				inflight.Add(-1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("workers %d mask %#x: consumed %v, want %v", workers, mask, got, want)
			}
			if peak.Load() > window {
				t.Fatalf("workers %d: %d shards in flight, window %d", workers, peak.Load(), window)
			}
			settleGoroutines(t, base, fmt.Sprintf("workers %d mask %#x", workers, mask))
		}
	}
}

// TestShardPipelineErrors: the first error in shard order — from prepare
// or from consume — is what Run returns, nothing at or after the failing
// shard is consumed, and no prepare is still running once Run returns.
func TestShardPipelineErrors(t *testing.T) {
	base := runtime.NumGoroutine()
	errBoom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		for _, failAt := range []int{0, 1, 17, 63} {
			for _, inPrepare := range []bool{true, false} {
				label := fmt.Sprintf("workers %d, fail at %d, in prepare %v", workers, failAt, inPrepare)
				var p ShardPipeline[int]
				var consumed []int
				var returned, late atomic.Bool
				err := p.Run(workers, ^uint64(0), func(sh int, buf *int) error {
					time.Sleep(time.Duration(sh%3) * 50 * time.Microsecond)
					if returned.Load() {
						late.Store(true)
					}
					*buf = sh
					if inPrepare && sh >= failAt {
						return fmt.Errorf("shard %d: %w", sh, errBoom)
					}
					return nil
				}, func(sh int, buf *int) error {
					if !inPrepare && sh == failAt {
						return fmt.Errorf("shard %d: %w", sh, errBoom)
					}
					consumed = append(consumed, sh)
					return nil
				})
				returned.Store(true)
				if !errors.Is(err, errBoom) || err.Error() != fmt.Sprintf("shard %d: boom", failAt) {
					t.Fatalf("%s: err = %v", label, err)
				}
				if len(consumed) != failAt || (failAt > 0 && consumed[failAt-1] != failAt-1) {
					t.Fatalf("%s: consumed %v", label, consumed)
				}
				settleGoroutines(t, base, label)
				if late.Load() {
					t.Fatalf("%s: a prepare ran after Run returned", label)
				}
			}
		}
	}
}
