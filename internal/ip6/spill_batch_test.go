package ip6

import (
	"fmt"
	"testing"

	"hitlist6/internal/rng"
)

// shardPool draws n distinct addresses of shard sh, ascending.
func shardPool(seed uint64, sh, n int) []Addr {
	r := rng.NewStream(seed, "spill-batch")
	seen := NewSet(n)
	for len(seen) < n {
		a := AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()>>40, r.Uint64())
		if ShardOf(a) == sh {
			seen.Add(a)
		}
	}
	return seen.Sorted()
}

// requireTwins requires shard sh of the batch-fed set and of its twin fed
// by AddToShard to be indistinguishable: members, length, frozen runs,
// scratch bytes and add log.
func requireTwins(t *testing.T, what string, batch, point *SpillSet, sh int) {
	t.Helper()
	if g, w := batch.ShardLen(sh), point.ShardLen(sh); g != w {
		t.Fatalf("%s: ShardLen %d, twin %d", what, g, w)
	}
	got, err := drainCursor(batch.ShardCursor(sh))
	if err != nil {
		t.Fatal(err)
	}
	want, err := drainCursor(point.ShardCursor(sh))
	if err != nil {
		t.Fatal(err)
	}
	requireAddrs(t, what+": ShardCursor", got, want)
	if g, w := batch.FrozenRuns(), point.FrozenRuns(); g != w {
		t.Fatalf("%s: FrozenRuns %d, twin %d", what, g, w)
	}
	if g, w := batch.SpilledBytes(), point.SpilledBytes(); g != w {
		t.Fatalf("%s: SpilledBytes %d, twin %d", what, g, w)
	}
	if !batch.LogComplete() || !point.LogComplete() {
		t.Fatalf("%s: log complete %v, twin %v", what, batch.LogComplete(), point.LogComplete())
	}
	if g, w := batch.LogLen(sh), point.LogLen(sh); g != w {
		t.Fatalf("%s: LogLen %d, twin %d", what, g, w)
	}
	got, err = drainCursor(batch.LogCursor(sh))
	if err != nil {
		t.Fatal(err)
	}
	want, err = drainCursor(point.LogCursor(sh))
	if err != nil {
		t.Fatal(err)
	}
	requireAddrs(t, what+": LogCursor", got, want)
}

// TestAddBatchMatchesPointInserts holds AddBatchToShard to a map of the
// members and to a twin set fed the same addresses one AddToShard at a time, resident (a shard with no run takes the point path) and spilled
// at budgets 1 and 8. The batches are shuffled and repeat addresses, and
// they hold members of every part of the shard — the Δ or column, small
// frozen runs and a compacted run of several fence blocks, probed at its
// block edges — besides addresses below its first fence and above its
// last address. After every batch the fresh flags, the members, the
// frozen runs, the scratch bytes and the add log must be the twin's.
func TestAddBatchMatchesPointInserts(t *testing.T) {
	const sh = 5
	pool := shardPool(41, sh, 1600)
	below, above, mid := pool[:8], pool[len(pool)-8:], pool[8:len(pool)-8]
	var preload []Addr // every other address, so non-members sit between
	for i := 0; i < 1200; i += 2 {
		preload = append(preload, mid[i])
	}
	for _, budget := range []int{0, 1, 8} {
		batch, point := newTestSet(t, budget), newTestSet(t, budget)
		// model is a map of the members, independent of fence search.
		model := SetOf(preload...)
		model.AddSlice(mid[1201:1240])
		for _, s := range []*SpillSet{batch, point} {
			for _, a := range preload {
				s.AddToShard(sh, a)
			}
			// One run of several fence blocks, or a folded column.
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			// The log starts, as after a checkpoint, with the shard loaded.
			s.StartLog()
			// Newer members: small runs at budget 1 and 8, a Δ throughout.
			for _, a := range mid[1201:1240] {
				s.AddToShard(sh, a)
			}
		}
		requireTwins(t, fmt.Sprintf("budget %d preload", budget), batch, point, sh)

		r := rng.NewStream(uint64(budget), "spill-batch-draw")
		for round := 0; round < 8; round++ {
			what := fmt.Sprintf("budget %d round %d", budget, round)
			var addrs []Addr
			for _, k := range []int{0, 1, fenceEvery - 1, fenceEvery, fenceEvery + 1, 2*fenceEvery - 1, 2 * fenceEvery, 2*fenceEvery + 1, len(preload) - 1} {
				addrs = append(addrs, preload[k])
			}
			addrs = append(addrs, below[round%len(below)], above[round%len(above)], mid[1201+round], mid[1239-round])
			for i := 0; i < 60; i++ {
				addrs = append(addrs, mid[r.Intn(len(mid))])
			}
			// Repeats, the earlier listing of a new address among them.
			for i := 0; i < 12; i++ {
				addrs = append(addrs, addrs[r.Intn(len(addrs))])
			}
			r.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })

			fresh := make([]bool, len(addrs))
			batch.AddBatchToShard(sh, addrs, fresh)
			for k, a := range addrs {
				want := !model.Has(a)
				model.Add(a)
				if got := point.AddToShard(sh, a); fresh[k] != want || got != want {
					t.Fatalf("%s: fresh[%d] (%v) = %v, AddToShard says %v, want %v", what, k, a, fresh[k], got, want)
				}
			}
			requireTwins(t, what, batch, point, sh)
			if round%3 == 2 {
				for _, s := range []*SpillSet{batch, point} {
					if err := s.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				requireTwins(t, what+" compacted", batch, point, sh)
			}
		}
		if budget != 0 && batch.FrozenRuns() == 0 {
			t.Fatalf("budget %d froze no runs", budget)
		}
		for _, s := range []*SpillSet{batch, point} {
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A run that can no longer be read latches the set's sticky error.
	set := newTestSet(t, 8)
	for _, a := range preload {
		set.AddToShard(sh, a)
	}
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	set.rf.f.Close()
	set.AddBatchToShard(sh, []Addr{mid[1], preload[300]}, make([]bool, 2))
	if set.Err() == nil {
		t.Fatal("a batch against a closed run file latched no error")
	}
}
