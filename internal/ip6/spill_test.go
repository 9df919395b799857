package ip6

import (
	"os"
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

// TestSpillSetMatchesShardedSet drives a SpillSet with a tiny budget and
// a resident ShardedSet through the same operation sequence and checks
// every observable view agrees.
func TestSpillSetMatchesShardedSet(t *testing.T) {
	spill, err := NewSpillSet(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	resident := NewShardedSet()

	addrs := randAddrs(3, 4000, true)
	for i, a := range addrs {
		sh := ShardOf(a)
		gotNew := spill.AddToShard(sh, a)
		wantNew := resident.AddToShard(sh, a)
		if gotNew != wantNew {
			t.Fatalf("insert %d: spill new=%v resident new=%v", i, gotNew, wantNew)
		}
		if i%997 == 0 {
			if err := spill.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Batch inserts through the AddAll path.
	batch := SetOf(randAddrs(4, 300, false)...)
	perShard := make([]Set, AddrShards)
	for a := range batch {
		sh := ShardOf(a)
		if perShard[sh] == nil {
			perShard[sh] = NewSet(0)
		}
		perShard[sh].Add(a)
	}
	for sh, set := range perShard {
		if set == nil {
			continue
		}
		spill.AddAllToShard(sh, set)
		resident.AddAllToShard(sh, set)
	}

	if spill.FrozenRuns() == 0 {
		t.Fatal("tiny budget froze no runs — spilling never happened")
	}
	if got, want := spill.Len(), resident.Len(); got != want {
		t.Fatalf("Len: spill %d, resident %d", got, want)
	}
	for _, a := range addrs {
		if !spill.Has(a) {
			t.Fatalf("spill set lost %v", a)
		}
	}
	for _, a := range randAddrs(5, 500, false) {
		if spill.Has(a) != resident.Has(a) {
			t.Fatalf("membership diverges for %v", a)
		}
	}

	// Merge and per-shard walks agree exactly.
	gotMerge, wantMerge := spill.Merge(), resident.Merge()
	if len(gotMerge) != len(wantMerge) {
		t.Fatalf("Merge: %d vs %d members", len(gotMerge), len(wantMerge))
	}
	for a := range wantMerge {
		if !gotMerge.Has(a) {
			t.Fatalf("Merge missing %v", a)
		}
	}
	for sh := 0; sh < AddrShards; sh++ {
		walked := NewSet(0)
		spill.WalkShard(sh, func(a Addr) bool {
			if ShardOf(a) != sh {
				t.Fatalf("WalkShard(%d) yielded foreign addr %v", sh, a)
			}
			if !walked.Add(a) {
				t.Fatalf("WalkShard(%d) yielded %v twice", sh, a)
			}
			return true
		})
		want := resident.Shard(sh)
		if walked.Len() != want.Len() {
			t.Fatalf("shard %d: walked %d, want %d", sh, walked.Len(), want.Len())
		}
	}

	// Compaction folds runs down without changing any view.
	lenBefore := spill.Len()
	if err := spill.Compact(); err != nil {
		t.Fatal(err)
	}
	if spill.Len() != lenBefore {
		t.Fatalf("Compact changed Len %d → %d", lenBefore, spill.Len())
	}
	for _, a := range addrs[:512] {
		if !spill.Has(a) {
			t.Fatalf("Compact lost %v", a)
		}
	}
	if err := spill.Err(); err != nil {
		t.Fatal(err)
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

// TestSpillSetParallelShards exercises the per-shard contract: concurrent
// writers on distinct shards share one scratch file.
func TestSpillSetParallelShards(t *testing.T) {
	spill, err := NewSpillSet(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()

	addrs := randAddrs(7, 5000, false)
	perShard := make([][]Addr, AddrShards)
	for _, a := range addrs {
		sh := ShardOf(a)
		perShard[sh] = append(perShard[sh], a)
	}
	ParallelShards(8, func(sh int) {
		for _, a := range perShard[sh] {
			spill.AddToShard(sh, a)
		}
	})
	if err := spill.Err(); err != nil {
		t.Fatal(err)
	}
	if got := spill.Len(); got != len(addrs) {
		t.Fatalf("Len %d, want %d", got, len(addrs))
	}
	ParallelShards(8, func(sh int) {
		for _, a := range perShard[sh] {
			if !spill.HasInShard(sh, a) {
				t.Errorf("shard %d lost %v", sh, a)
				return
			}
		}
	})
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
