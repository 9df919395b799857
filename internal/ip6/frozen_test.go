package ip6

import (
	"testing"

	"hitlist6/internal/rng"
)

// TestFrozenPrefixMapMatchesMapPath pins the frozen segment index to the
// per-length map walk on a nested BGP-shaped table: every lookup must
// return the identical (prefix, value, ok) triple.
func TestFrozenPrefixMapMatchesMapPath(t *testing.T) {
	m := NewPrefixMap[int]()
	prefixes := []string{
		"2001:db8::/32",
		"2001:db8::/48",      // nested at the parent's start
		"2001:db8:0:4::/64",  // nested deeper
		"2001:db8:8000::/33", // upper half, ends exactly at the /32's end
		"2600::/12",
		"2600:9000::/28",
		"2600:9000:1::/48",
		"240e::/20",
		"::/0", // everything is covered; gaps resolve to this
	}
	for i, ps := range prefixes {
		m.Insert(MustParsePrefix(ps), i+1)
	}

	type key struct {
		p  Prefix
		v  int
		ok bool
	}
	lookup := func(a Addr) key {
		p, v, ok := m.Lookup(a)
		return key{p, v, ok}
	}

	var samples []Addr
	r := rng.NewStream(11, "frozen-prefixmap")
	for _, ps := range prefixes {
		p := MustParsePrefix(ps)
		samples = append(samples, p.Addr(), lastAddrOf(p), lastAddrOf(p).Next(), p.Addr().Prev())
		for i := 0; i < 64; i++ {
			samples = append(samples, p.RandomAddr(r))
		}
	}
	for i := 0; i < 256; i++ {
		samples = append(samples, AddrFromUint64s(r.Uint64(), r.Uint64()))
	}

	want := make([]key, len(samples))
	for i, a := range samples {
		want[i] = lookup(a)
	}
	m.Freeze()
	for i, a := range samples {
		if got := lookup(a); got != want[i] {
			t.Fatalf("addr %v: frozen lookup %+v, map path %+v", a, got, want[i])
		}
		if m.Contains(a) != want[i].ok {
			t.Fatalf("addr %v: frozen Contains diverges", a)
		}
	}

	// Mutation drops the index and the map path takes over seamlessly.
	extra := MustParsePrefix("2001:db8:0:4:8000::/65")
	m.Insert(extra, 99)
	if p, v, ok := m.Lookup(extra.Addr()); !ok || v != 99 || p != extra {
		t.Fatalf("post-mutation lookup broken: %v %v %v", p, v, ok)
	}
	m.Freeze()
	if p, v, ok := m.Lookup(extra.Addr()); !ok || v != 99 || p != extra {
		t.Fatalf("refrozen lookup broken: %v %v %v", p, v, ok)
	}
}

// TestFrozenPrefixMapGaps exercises a table without a default route:
// uncovered gaps between and around prefixes must miss.
func TestFrozenPrefixMapGaps(t *testing.T) {
	m := NewPrefixMap[string]()
	m.Insert(MustParsePrefix("2001:db8::/48"), "a")
	m.Insert(MustParsePrefix("2001:db9::/48"), "b")
	m.Freeze()
	for _, tc := range []struct {
		addr string
		want string
		ok   bool
	}{
		{"::1", "", false},
		{"2001:db7:ffff:ffff:ffff:ffff:ffff:ffff", "", false},
		{"2001:db8::", "a", true},
		{"2001:db8:0:ffff:ffff:ffff:ffff:ffff", "a", true},
		{"2001:db8:1::", "", false},
		{"2001:db9::42", "b", true},
		{"2001:dba::", "", false},
		{"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", "", false},
	} {
		_, v, ok := m.Lookup(MustParseAddr(tc.addr))
		if ok != tc.ok || v != tc.want {
			t.Errorf("%s: got (%q,%v), want (%q,%v)", tc.addr, v, ok, tc.want, tc.ok)
		}
	}
}

// TestFrozenPrefixMapFullSpace: a prefix covering the top of the address
// space must not wrap the sweep.
func TestFrozenPrefixMapFullSpace(t *testing.T) {
	m := NewPrefixMap[int]()
	m.Insert(MustParsePrefix("ff00::/8"), 1)
	m.Freeze()
	if _, v, ok := m.Lookup(MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")); !ok || v != 1 {
		t.Fatal("top-of-space address missed")
	}
	if _, _, ok := m.Lookup(MustParseAddr("fe00::")); ok {
		t.Fatal("address below range matched")
	}
}

// TestSortedShardSet pins SortedOf, IntersectCount, Union and Sorted
// against a hash-set reference.
func TestSortedShardSet(t *testing.T) {
	r := rng.NewStream(5, "sorted-shards")
	mk := func(n int, overlapWith []Addr, overlapEvery int) []Addr {
		var out []Addr
		for i, a := range overlapWith {
			if i%overlapEvery == 0 {
				out = append(out, a)
			}
		}
		for j := 0; j < n; j++ {
			a := AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()>>32, r.Uint64())
			out = append(out, a, a) // repeats are dropped
		}
		return out
	}
	addrsA := mk(1000, nil, 0)
	addrsB := mk(700, addrsA, 3)
	flatA, flatB := SetOf(addrsA...), SetOf(addrsB...)

	sa, sb := SortedOf(addrsA...), SortedOf(addrsB...)
	if sa.Len() != flatA.Len() || sb.Len() != flatB.Len() {
		t.Fatalf("Len mismatch: %d/%d vs %d/%d", sa.Len(), sb.Len(), flatA.Len(), flatB.Len())
	}
	common := 0
	for a := range flatA {
		if flatB.Has(a) {
			common++
		}
	}
	if got := sa.IntersectCount(sb); got != common {
		t.Fatalf("IntersectCount %d, want %d", got, common)
	}
	if got := sb.IntersectCount(sa); got != common {
		t.Fatalf("reverse IntersectCount %d, want %d", got, common)
	}
	// Self-intersection is the cardinality.
	if got := sa.IntersectCount(sa); got != sa.Len() {
		t.Fatalf("self IntersectCount %d, want %d", got, sa.Len())
	}
	union := SetOf(addrsA...)
	union.AddSlice(addrsB)
	u := sa.Union(sb)
	requireAddrs(t, "Union", u.Sorted(), union.Sorted())
	requireAddrs(t, "Sorted", sa.Sorted(), flatA.Sorted())
	var empty *SortedShardSet
	if empty.Union(sa).Len() != sa.Len() || len(empty.Sorted()) != 0 {
		t.Fatal("a nil set is not empty")
	}
	var walked []Addr
	sa.Walk(func(a Addr) bool { walked = append(walked, a); return true })
	n := 0
	sa.Walk(func(Addr) bool { n++; return false })
	var canonical []Addr
	for sh := 0; sh < AddrShards; sh++ {
		canonical = append(canonical, sa.Shard(sh)...)
	}
	requireAddrs(t, "Walk", walked, canonical)
	if n != 1 {
		t.Fatalf("early-stop walk visited %d", n)
	}
	// Shards are strictly sorted and hold only their own addresses.
	for _, set := range []*SortedShardSet{sa, u} {
		seen := 0
		for sh := 0; sh < AddrShards; sh++ {
			shard := set.Shard(sh)
			for i := range shard {
				seen++
				if ShardOf(shard[i]) != sh {
					t.Fatalf("shard %d holds foreign address %v", sh, shard[i])
				}
				if i > 0 && !shard[i-1].Less(shard[i]) {
					t.Fatalf("shard %d not strictly sorted at %d", sh, i)
				}
			}
		}
		if seen != set.Len() {
			t.Fatalf("walked %d members, Len says %d", seen, set.Len())
		}
	}
}
