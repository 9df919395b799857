package ip6

import (
	"fmt"
	"os"
	"slices"
	"testing"

	"hitlist6/internal/rng"
)

// randAddrs draws n deterministic pseudo-random addresses (with some
// forced duplicates when dup is true).
func randAddrs(seed uint64, n int, dup bool) []Addr {
	r := rng.NewStream(seed, "spill-test")
	out := make([]Addr, 0, n)
	for i := 0; i < n; i++ {
		a := AddrFromUint64s(r.Uint64(), r.Uint64())
		out = append(out, a)
		if dup && i%7 == 0 {
			out = append(out, a)
			i++
		}
	}
	return out
}

func TestRunFileWriteHasMerge(t *testing.T) {
	rf, err := OpenRunFile(t.TempDir(), "runs-*")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()

	addrs := randAddrs(1, 3000, false)
	SortAddrs(addrs)
	half := len(addrs) / 2
	r1, err := rf.WriteRun(addrs[:half])
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rf.WriteRun(addrs[half:])
	if err != nil {
		t.Fatal(err)
	}
	if r1.Count()+r2.Count() != len(addrs) {
		t.Fatalf("run counts %d+%d != %d", r1.Count(), r2.Count(), len(addrs))
	}

	var scratch []byte
	for i, a := range addrs {
		run := &r1
		if i >= half {
			run = &r2
		}
		ok, err := run.Has(rf, a, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("addr %d missing from its run", i)
		}
	}
	// Probes for absent addresses.
	miss := 0
	for _, a := range randAddrs(2, 500, false) {
		ok1, err1 := r1.Has(rf, a, &scratch)
		ok2, err2 := r2.Has(rf, a, &scratch)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !ok1 && !ok2 {
			miss++
		}
	}
	if miss != 500 {
		t.Fatalf("expected 500 misses, got %d", miss)
	}

	// Merge restores the full sorted sequence, deduped.
	overlap := addrs[half-50 : half+50] // duplicate a window across a third run
	r3, err := rf.WriteRun(overlap)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := drainCursor(rf.Merge([]*Run{&r1, &r2, &r3}))
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(addrs) {
		t.Fatalf("merged %d addrs, want %d", len(merged), len(addrs))
	}
	for i := range merged {
		if merged[i] != addrs[i] {
			t.Fatalf("merged[%d] = %v, want %v", i, merged[i], addrs[i])
		}
	}
}

// newTestSet returns a resident set for budget 0, else a spilling one in
// a fresh temp directory, closed with the test.
func newTestSet(t *testing.T, budget int) *SpillSet {
	t.Helper()
	if budget == 0 {
		return NewResidentSet()
	}
	s, err := NewSpillSet(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// requireIdentity pins the column identity contract: a column that did
// not change is the very same slice, and one that changed lives in a
// fresh array.
func requireIdentity(t *testing.T, what string, before, after []Addr, changed bool) {
	t.Helper()
	shared := len(before) > 0 && len(after) > 0 && &before[0] == &after[0]
	if changed && shared {
		t.Fatalf("%s: changed column reuses its old array", what)
	}
	if !changed && (len(before) != len(after) || len(before) > 0 && !shared) {
		t.Fatalf("%s: unchanged column is not the same slice", what)
	}
}

// TestSpillSetMatchesShardedSet drives the set — resident and at budgets
// 1, 3 and 64 — and a map-and-sort model through the same random
// sequence of point inserts, ascending bulk inserts and compactions,
// checking Len, Has, every shard's cursor and the view against the model
// along the way. On the resident set it also pins the identity
// contract: a shard that Compact or View did not fold keeps its very
// slice, and one that folded gets a fresh array.
func TestSpillSetMatchesShardedSet(t *testing.T) {
	pool := randAddrs(3, 20000, false)
	var byShard [AddrShards][]Addr
	for _, a := range pool {
		byShard[ShardOf(a)] = append(byShard[ShardOf(a)], a)
	}
	for _, budget := range []int{0, 1, 3, 64} {
		set := newTestSet(t, budget)
		model := NewShardedSet()
		r := rng.NewStream(uint64(budget), "spillset-model")
		folds := 0
		check := func(step int) {
			t.Helper()
			var before [AddrShards][]Addr
			var pending [AddrShards]bool
			for sh := range pending {
				before[sh], _ = set.Column(sh)
				pending[sh] = set.ShardLen(sh) > len(before[sh])
			}
			if got, want := set.Len(), model.Len(); got != want {
				t.Fatalf("budget %d step %d: Len %d, want %d", budget, step, got, want)
			}
			for _, a := range pool[:200] {
				if set.Has(a) != model.Has(a) {
					t.Fatalf("budget %d step %d: Has(%v) = %v", budget, step, a, set.Has(a))
				}
			}
			view, err := set.View()
			if err != nil {
				t.Fatal(err)
			}
			// A resident view folds every pending Δ: exactly those shards
			// are fresh arrays, every other one is the column as it was.
			for sh := 0; budget == 0 && sh < AddrShards; sh++ {
				requireIdentity(t, fmt.Sprintf("step %d: view shard %d", step, sh), before[sh], view.Shard(sh), pending[sh])
			}
			for sh := 0; sh < AddrShards; sh++ {
				want := model.Shard(sh).Sorted()
				got, err := drainCursor(set.ShardCursor(sh))
				if err != nil {
					t.Fatal(err)
				}
				requireAddrs(t, fmt.Sprintf("budget %d step %d shard %d cursor", budget, step, sh), got, want)
				requireAddrs(t, fmt.Sprintf("budget %d step %d shard %d view", budget, step, sh), view.Shard(sh), want)
				if set.ShardLen(sh) != len(want) {
					t.Fatalf("budget %d step %d: ShardLen(%d) = %d, want %d", budget, step, sh, set.ShardLen(sh), len(want))
				}
			}
		}
		for step := 0; step < 300; step++ {
			switch r.Intn(10) {
			case 0: // compact
				var before [AddrShards][]Addr
				var pending [AddrShards]int
				for sh := range before {
					before[sh], _ = set.Column(sh)
					pending[sh] = set.ShardLen(sh) - len(before[sh])
				}
				if err := set.Compact(); err != nil {
					t.Fatal(err)
				}
				if budget != 0 {
					continue
				}
				// A Δ folds once it outgrows foldFloor and its column's
				// 1/foldRatio; a smaller one stays pending, and its column
				// stays put.
				for sh := range before {
					due := pending[sh] > foldFloor && pending[sh]*foldRatio > len(before[sh])
					col, whole := set.Column(sh)
					if whole != (due || pending[sh] == 0) {
						t.Fatalf("step %d: shard %d with %d pending over %d: whole=%v after Compact", step, sh, pending[sh], len(before[sh]), whole)
					}
					requireIdentity(t, fmt.Sprintf("step %d: Compact shard %d", step, sh), before[sh], col, due)
					if due {
						folds++
					}
				}
			case 1, 2: // ascending bulk insert into one shard
				sh := r.Intn(AddrShards)
				var add []Addr
				for _, a := range byShard[sh] {
					if r.Intn(4) == 0 {
						add = append(add, a)
					}
				}
				for _, a := range add {
					model.AddToShard(sh, a)
				}
				SortAddrs(add)
				set.AddSortedToShard(sh, add)
			default: // point inserts, new and known
				for i := 0; i < 100; i++ {
					a := pool[r.Intn(len(pool))]
					sh := ShardOf(a)
					if got, want := set.AddToShard(sh, a), model.AddToShard(sh, a); got != want {
						t.Fatalf("budget %d step %d: AddToShard(%v) new=%v, want %v", budget, step, a, got, want)
					}
				}
			}
			if step%50 == 0 {
				check(step)
			}
		}
		if err := set.Compact(); err != nil {
			t.Fatal(err)
		}
		check(-1)
		if budget != 0 && set.FrozenRuns() == 0 {
			t.Fatalf("budget %d froze no runs — spilling never happened", budget)
		}
		if budget == 0 && folds == 0 {
			t.Fatal("no Compact folded a Δ — the fold rule was never exercised")
		}
		if err := set.Err(); err != nil {
			t.Fatal(err)
		}
		if got := len(set.Merge()); got != model.Len() {
			t.Fatalf("budget %d: Merge holds %d, want %d", budget, got, model.Len())
		}
	}
}

// TestShardSortedCursor pins ShardCursor on a set with pending Δs, folded
// columns and several runs per shard: each shard's members in ascending
// order, duplicate-free, clean end-of-stream.
func TestShardSortedCursor(t *testing.T) {
	for _, budget := range []int{0, 4} {
		set := newTestSet(t, budget)
		r := rng.NewStream(13, "cursor")
		for i := 0; i < 2000; i++ {
			set.Add(AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()>>32, r.Uint64()))
			if i == 1000 {
				if err := set.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := make([][]Addr, AddrShards)
		for _, a := range set.Merge().Sorted() {
			want[ShardOf(a)] = append(want[ShardOf(a)], a)
		}
		for sh := 0; sh < AddrShards; sh++ {
			cur := set.ShardCursor(sh)
			got, err := drainCursor(cur)
			if err != nil {
				t.Fatalf("budget %d shard %d: cursor error: %v", budget, sh, err)
			}
			requireAddrs(t, fmt.Sprintf("budget %d shard %d", budget, sh), got, want[sh])
			// Exhausted cursors stay exhausted.
			if _, ok, _ := cur(); ok {
				t.Fatalf("budget %d shard %d: cursor yielded past end", budget, sh)
			}
		}
	}
}

func TestSpillSetCloseRemovesScratch(t *testing.T) {
	dir := t.TempDir()
	spill, err := NewSpillSet(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range randAddrs(6, 64, false) {
		spill.Add(a)
	}
	if spill.SpilledBytes() == 0 {
		t.Fatal("budget 1 spilled nothing")
	}
	if err := spill.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("scratch files left behind: %v", entries)
	}
}

// TestSpillSetParallelShards exercises the per-shard contract, resident
// and spilled: concurrent writers on distinct shards — point and bulk
// inserts, spilled ones sharing one scratch file — then concurrent
// readers after a Compact. CI runs it repeatedly under -race.
func TestSpillSetParallelShards(t *testing.T) {
	addrs := randAddrs(7, 5000, false)
	perShard := make([][]Addr, AddrShards)
	for _, a := range addrs {
		sh := ShardOf(a)
		perShard[sh] = append(perShard[sh], a)
	}
	for _, budget := range []int{0, 4} {
		set := newTestSet(t, budget)
		ParallelShards(8, func(sh int) {
			half := len(perShard[sh]) / 2
			bulk := slices.Clone(perShard[sh][:half])
			SortAddrs(bulk)
			set.AddSortedToShard(sh, bulk)
			for _, a := range perShard[sh][half:] {
				set.AddToShard(sh, a)
			}
		})
		if err := set.Err(); err != nil {
			t.Fatal(err)
		}
		if got := set.Len(); got != len(addrs) {
			t.Fatalf("budget %d: Len %d, want %d", budget, got, len(addrs))
		}
		if err := set.Compact(); err != nil {
			t.Fatal(err)
		}
		ParallelShards(8, func(sh int) {
			for _, a := range perShard[sh] {
				if !set.HasInShard(sh, a) {
					t.Errorf("budget %d: shard %d lost %v", budget, sh, a)
					return
				}
			}
		})
	}
}

// TestSpillSetCompactRotationReclaimsSpace drives enough churn through
// repeated compactions that dead bytes outgrow live data, and checks the
// scratch file is rewritten (bounded near the live size) with membership
// intact.
func TestSpillSetCompactRotationReclaimsSpace(t *testing.T) {
	dir := t.TempDir()
	spill, err := NewSpillSet(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()

	addrs := randAddrs(11, 300_000, false)
	chunk := 60_000
	for i := 0; i < len(addrs); i += chunk {
		end := i + chunk
		if end > len(addrs) {
			end = len(addrs)
		}
		for _, a := range addrs[i:end] {
			spill.Add(a)
		}
		// Each compaction rewrites the shard runs, turning the previous
		// copies into dead bytes; past the threshold Compact must rotate.
		if err := spill.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := spill.Err(); err != nil {
		t.Fatal(err)
	}
	if got := spill.Len(); got != len(addrs) {
		t.Fatalf("Len %d, want %d", got, len(addrs))
	}
	// Live data is ≤ Len addresses on disk; without rotation the scratch
	// file would hold every superseded compaction output (several times
	// the live size). Allow 2x for the rotation threshold's hysteresis.
	liveBytes := int64(spill.Len()) * AddrBytes
	if sz := spill.SpilledBytes(); sz > 2*liveBytes+rotateMinDead {
		t.Fatalf("scratch file %d bytes for %d live — rotation never reclaimed space", sz, liveBytes)
	}
	// Exactly one scratch file lives in the dir (the rotated-away ones
	// are removed).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d scratch files after rotation, want 1", len(entries))
	}
	for _, a := range addrs[:1000] {
		if !spill.Has(a) {
			t.Fatalf("rotation lost %v", a)
		}
	}
}
