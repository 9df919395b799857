package scan

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
)

// shardBatches streams targets through a sharded source and returns the
// delivered batch sequences keyed (shard, seq), and the stream's stats.
func shardBatches(t *testing.T, s *Scanner, targets []ip6.Addr) (map[[2]int][]Result, Stats) {
	t.Helper()
	var mu sync.Mutex
	out := make(map[[2]int][]Result)
	st, err := s.StreamFrom(context.Background(), SliceSource(targets), []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80}, 4, func(b *Batch) error {
		mu.Lock()
		out[[2]int{b.Shard, b.Seq}] = append([]Result(nil), b.Results...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

// TestDispatchOrderDoesNotChangeOutputs pins the hand-out contract: the
// queue goes out in canonical order, and the only thing that reorders it
// is a killed worker putting its shard back at the head. A kill at pickup
// and a kill after the shard's first filled batch, at several worker
// counts, must still yield per-shard batch sequences equal to one
// worker's — which holds only if the re-issued shard restarts from a
// fresh cursor.
func TestDispatchOrderDoesNotChangeOutputs(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(3)
	cfg.Workers = 1
	cfg.BatchSize = 4 // several batches per shard, so a mid-shard kill point exists
	targets := append(streamTargets(400), ip6.MustParseAddr("2001:100::80"))

	base, _ := shardBatches(t, New(n, cfg), targets)
	if len(base) == 0 {
		t.Fatal("no batches delivered")
	}
	for _, workers := range []int{2, 4, 8} {
		for _, midShard := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/midshard=%v", workers, midShard), func(t *testing.T) {
				var killed atomic.Bool
				cfg := cfg
				cfg.Workers = workers
				cfg.FaultHook = func(p FaultPoint) error {
					if (p.Batch >= 0) == midShard && killed.CompareAndSwap(false, true) {
						return ErrWorkerKilled
					}
					return nil
				}
				got, st := shardBatches(t, New(n, cfg), targets)
				if !killed.Load() || st.Reissued < 1 {
					t.Fatalf("no shard re-issued (hook fired: %v)", killed.Load())
				}
				if !reflect.DeepEqual(base, got) {
					t.Fatal("batch sequences diverge from one worker's")
				}
			})
		}
	}
}

// TestDedupWithSpillSet pins DedupWith against Dedup: a disk-backed
// emitted-set produces the exact same survivor stream as the resident
// one.
func TestDedupWithSpillSet(t *testing.T) {
	mk := func() TargetSource {
		base := streamTargets(300)
		// Interleave duplicates and a skipped prefix window.
		var noisy []ip6.Addr
		for i, a := range base {
			noisy = append(noisy, a)
			if i%3 == 0 {
				noisy = append(noisy, base[(i+150)%len(base)])
			}
		}
		return SliceSource(noisy)
	}
	skip := func(a ip6.Addr) bool { return a.Lo()%5 == 0 }

	want, err := Collect(Dedup(mk(), skip))
	if err != nil {
		t.Fatal(err)
	}

	spill, err := ip6.NewSpillSet(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	got, err := Collect(DedupWith(mk(), skip, spill))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("spill-backed dedup diverges: %d vs %d survivors", len(got), len(want))
	}
	if spill.FrozenRuns() == 0 {
		t.Error("tiny budget never spilled — test exercised nothing")
	}
	if err := spill.Err(); err != nil {
		t.Fatal(err)
	}
	// Sanity: survivors are unique.
	sorted := append([]ip6.Addr(nil), got...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			t.Fatalf("duplicate survivor %v", sorted[i])
		}
	}
}
