package scan

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
)

// shardBatches streams targets through a sharded source and returns the
// delivered batch sequences keyed (shard, seq).
func shardBatches(t *testing.T, s *Scanner, targets []ip6.Addr) map[[2]int][]Result {
	t.Helper()
	var mu sync.Mutex
	out := make(map[[2]int][]Result)
	_, err := s.StreamFrom(context.Background(), SliceSource(targets), []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80}, 4, func(b *Batch) error {
		mu.Lock()
		out[[2]int{b.Shard, b.Seq}] = append([]Result(nil), b.Results...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDispatchOrderDoesNotChangeOutputs pins the hand-out contract: any
// shard profile — here deliberately lying ones — reorders which worker
// probes which shard when, and yields bit-identical per-shard batch
// sequences.
func TestDispatchOrderDoesNotChangeOutputs(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(3)
	cfg.Workers = 4
	cfg.BatchSize = 16
	s := New(n, cfg)
	targets := append(streamTargets(400), ip6.MustParseAddr("2001:100::80"))

	base := shardBatches(t, s, targets)
	if len(base) == 0 {
		t.Fatal("no batches delivered")
	}

	// Claims the last shard is the slowest and the first the fastest:
	// the reverse of the size-ordered default's tie-break.
	ascending := make([]ShardStats, ip6.AddrShards)
	for sh := range ascending {
		ascending[sh].Nanos = int64(sh + 1)
	}
	// Claims one shard dwarfs everything and the rest cost nothing.
	skewed := make([]ShardStats, ip6.AddrShards)
	skewed[ip6.ShardOf(targets[0])].Nanos = 1 << 40
	for _, prof := range [][]ShardStats{ascending, skewed} {
		s.SetShardProfile(prof)
		if got := shardBatches(t, s, targets); !reflect.DeepEqual(base, got) {
			t.Fatalf("profile %v..: batch sequences diverge", prof[:2])
		}
	}
	s.SetShardProfile(nil)
	if got := shardBatches(t, s, targets); !reflect.DeepEqual(base, got) {
		t.Fatal("clearing the profile diverges")
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
