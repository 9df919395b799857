package tga

import (
	"testing"

	"hitlist6/internal/ip6"
)

func addrs(ss ...string) []ip6.Addr {
	out := make([]ip6.Addr, len(ss))
	for i, s := range ss {
		out[i] = ip6.MustParseAddr(s)
	}
	return out
}

func TestDedupAgainstSeeds(t *testing.T) {
	seeds := addrs("2001:db9::1", "2001:db9::2")
	cands := addrs("2001:db9::1", "2001:db9::3", "2001:db9::3", "2001:db9::4")
	out := DedupAgainstSeeds(cands, seeds)
	if len(out) != 2 || out[0] != ip6.MustParseAddr("2001:db9::3") || out[1] != ip6.MustParseAddr("2001:db9::4") {
		t.Errorf("dedup: %v", out)
	}
	if DedupAgainstSeeds(nil, seeds) != nil {
		t.Error("nil candidates")
	}
}

// nibbleEntropy is the per-position Shannon entropy of seeds, computed
// the way the models compute it: summed counts, then entropy.
func nibbleEntropy(seeds []ip6.Addr) [32]float64 {
	var counts [32][16]int64
	NibbleCounts(seeds, &counts)
	return EntropyFromCounts(&counts, len(seeds))
}

func TestNibbleEntropy(t *testing.T) {
	// All same → zero entropy everywhere.
	same := addrs("2001:db9::1", "2001:db9::1")
	e := nibbleEntropy(same)
	for i, v := range e {
		if v != 0 {
			t.Fatalf("entropy[%d] = %v for identical seeds", i, v)
		}
	}
	// Last nibble uniform over two values → 1 bit at position 31 only.
	two := addrs("2001:db9::1", "2001:db9::2")
	e = nibbleEntropy(two)
	if e[31] != 1 {
		t.Errorf("entropy[31] = %v, want 1", e[31])
	}
	for i := 0; i < 31; i++ {
		if e[i] != 0 {
			t.Errorf("entropy[%d] = %v, want 0", i, e[i])
		}
	}
	// Empty input.
	e = nibbleEntropy(nil)
	if e[0] != 0 {
		t.Error("empty entropy")
	}
}

func TestNibbleValueSets(t *testing.T) {
	vs := NibbleValueSets(addrs("2001:db9::1", "2001:db9::2", "2001:db9::f"))
	if len(vs[31]) != 3 || vs[31][0] != 1 || vs[31][1] != 2 || vs[31][2] != 0xf {
		t.Errorf("value set: %v", vs[31])
	}
	if len(vs[0]) != 1 || vs[0][0] != 2 {
		t.Errorf("fixed position: %v", vs[0])
	}
}

func TestGroupBySlash64(t *testing.T) {
	groups := GroupSortedBySlash64(addrs("2001:db9::1", "2001:db9::2", "2001:db9:0:1::1"))
	if len(groups) != 2 {
		t.Fatalf("groups: %d", len(groups))
	}
	if ip6.ComparePrefix(groups[0].Prefix, groups[1].Prefix) >= 0 {
		t.Errorf("groups not sorted by prefix: %v, %v", groups[0].Prefix, groups[1].Prefix)
	}
	if groups[0].Prefix != ip6.MustParsePrefix("2001:db9::/64") {
		t.Errorf("first prefix: %v", groups[0].Prefix)
	}
	g := groups[0].Addrs
	if len(g) != 2 || !g[0].Less(g[1]) {
		t.Errorf("group not sorted: %v", g)
	}
	if GroupSortedBySlash64(nil) != nil {
		t.Error("empty seeds")
	}
}

func TestGroupSortedBySlash64SharesInput(t *testing.T) {
	sorted := addrs("2001:db9::1", "2001:db9::2", "2001:db9:0:1::1")
	groups := GroupSortedBySlash64(sorted)
	if len(groups) != 2 {
		t.Fatalf("groups: %d", len(groups))
	}
	if &groups[0].Addrs[0] != &sorted[0] || &groups[1].Addrs[0] != &sorted[2] {
		t.Error("groups are not subslices of the input")
	}
}

// canonical lists seeds the way Added reports them: shard by shard,
// ascending within a shard.
func canonical(seeds []ip6.Addr) []ip6.Addr {
	var out []ip6.Addr
	SeedViewOf(seeds).Walk(func(a ip6.Addr) bool {
		out = append(out, a)
		return true
	})
	return out
}

// foldedView folds set and returns its view.
func foldedView(t *testing.T, set *ip6.SpillSet) *ip6.SortedShardSet {
	t.Helper()
	if err := set.Compact(); err != nil {
		t.Fatal(err)
	}
	v, err := set.View()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// sharedShards counts the shards two views hold as the same span.
func sharedShards(a, b *ip6.SortedShardSet) int {
	n := 0
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if SameSpan(a.Shard(sh), b.Shard(sh)) {
			n++
		}
	}
	return n
}

// TestKeptSpansAdded pins the grow-only diff every generator updates
// from: the first view and any view that is not a grow-only extension of
// the kept one report a reset with every seed; otherwise exactly the new
// seeds come back, in canonical order, including seeds that land between
// kept ones.
func TestKeptSpansAdded(t *testing.T) {
	var base, more []ip6.Addr
	p := ip6.MustParsePrefix("2001:db9:5::/64")
	for i := uint64(0); i < 400; i++ {
		if i%4 == 1 {
			more = append(more, p.NthAddr(i)) // between and after base seeds
		} else {
			base = append(base, p.NthAddr(i))
		}
	}
	set := ip6.NewResidentSet()
	for _, a := range base {
		set.Add(a)
	}
	first := foldedView(t, set)
	for _, a := range more {
		set.Add(a)
	}
	grown := foldedView(t, set)
	if sharedShards(first, grown) == ip6.AddrShards {
		t.Fatal("growth refroze no shard")
	}

	var k KeptSpans
	expect := func(label string, v *SeedView, want []ip6.Addr, wantReset bool) {
		t.Helper()
		added, reset := k.Added(v)
		if reset != wantReset {
			t.Fatalf("%s: reset = %v, want %v", label, reset, wantReset)
		}
		if len(added) != len(want) {
			t.Fatalf("%s: %d seeds added, want %d", label, len(added), len(want))
		}
		for i := range want {
			if added[i] != want[i] {
				t.Fatalf("%s: added[%d] = %v, want %v", label, i, added[i], want[i])
			}
		}
	}
	all := append(append([]ip6.Addr(nil), base...), more...)
	expect("first view", NewSeedView(first), canonical(base), true)
	expect("same view again", NewSeedView(first), nil, false)
	expect("same seeds, new backing", SeedViewOf(base), nil, false)
	expect("grown view", NewSeedView(grown), canonical(more), false)

	// Drop the largest seed of the first non-empty shard: that shard
	// shrank, every other span is unchanged in content.
	seeds := canonical(all)
	last := 0
	for ip6.ShardOf(seeds[last+1]) == ip6.ShardOf(seeds[0]) {
		last++
	}
	shrunk := append(append([]ip6.Addr(nil), seeds[:last]...), seeds[last+1:]...)
	expect("shrunk shard", SeedViewOf(shrunk), canonical(shrunk), true)
	expect("grown view after shrink", NewSeedView(grown), seeds[last:last+1], false)

	foreign := addrs("2a02:db8:7::1", "2a02:db8:7::5", "2a02:db8:8::1")
	expect("foreign view", SeedViewOf(foreign), canonical(foreign), true)
}

func TestSeedViewOf(t *testing.T) {
	seeds := addrs("2001:db9::2", "2001:db9::1", "2001:db9::2", "2a01:e00:4::1")
	v := SeedViewOf(seeds)
	if v.Len() != 3 {
		t.Fatalf("len: %d", v.Len())
	}
	for _, s := range seeds {
		if !v.Has(s) {
			t.Errorf("missing %v", s)
		}
	}
	if v.Has(ip6.MustParseAddr("2001:db9::3")) {
		t.Error("phantom member")
	}
	var walked []ip6.Addr
	v.Walk(func(a ip6.Addr) bool { walked = append(walked, a); return true })
	if len(walked) != 3 {
		t.Fatalf("walked: %d", len(walked))
	}
	for sh := 0; sh < ip6.AddrShards; sh++ {
		span := v.Shard(sh)
		for i := 1; i < len(span); i++ {
			if !span[i-1].Less(span[i]) {
				t.Fatalf("shard %d not strictly sorted", sh)
			}
		}
		for _, a := range span {
			if ip6.ShardOf(a) != sh {
				t.Fatalf("addr %v in wrong shard %d", a, sh)
			}
		}
	}
	// Nil and empty views are empty, not panics.
	var nilView *SeedView
	if nilView.Len() != 0 || nilView.Has(seeds[0]) || nilView.Shard(0) != nil {
		t.Error("nil view")
	}
	if SeedViewOf(nil).Len() != 0 {
		t.Error("empty view")
	}
}

func TestSameSpan(t *testing.T) {
	a := addrs("2001:db9::1", "2001:db9::2")
	if !SameSpan(a, a) {
		t.Error("identical slice")
	}
	if SameSpan(a, a[:1]) {
		t.Error("different lengths")
	}
	b := append([]ip6.Addr(nil), a...)
	if SameSpan(a, b) {
		t.Error("equal content, different backing")
	}
	if !SameSpan(nil, nil) || !SameSpan(a[:0], b[:0]) {
		t.Error("empty spans are the same")
	}
}
