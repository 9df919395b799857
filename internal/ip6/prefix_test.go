package ip6

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	if p.Bits() != 32 || p.Addr() != MustParseAddr("2001:db8::") {
		t.Errorf("parsed %v", p)
	}
	if p.String() != "2001:db8::/32" {
		t.Errorf("String = %q", p.String())
	}
	// Base must be masked.
	q := MustParsePrefix("2001:db8:ffff::1/32")
	if q != p {
		t.Errorf("masking failed: %v", q)
	}
	if _, err := ParsePrefix("192.0.2.0/24"); err == nil {
		t.Error("IPv4 prefix accepted")
	}
	if _, err := ParsePrefix("2001:db8::/129"); err == nil {
		t.Error("/129 accepted")
	}
	if _, err := ParsePrefix("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	if !p.Contains(MustParseAddr("2001:db8:1234::1")) {
		t.Error("Contains failed inside")
	}
	if p.Contains(MustParseAddr("2001:db9::1")) {
		t.Error("Contains succeeded outside")
	}
	all := MustParsePrefix("::/0")
	if !all.Contains(MustParseAddr("ff02::1")) {
		t.Error("::/0 must contain everything")
	}
	host := MustParsePrefix("2001:db8::1/128")
	if !host.Contains(MustParseAddr("2001:db8::1")) || host.Contains(MustParseAddr("2001:db8::2")) {
		t.Error("/128 membership wrong")
	}
}

func TestContainsPrefixOverlaps(t *testing.T) {
	p32 := MustParsePrefix("2001:db8::/32")
	p48 := MustParsePrefix("2001:db8:1::/48")
	other := MustParsePrefix("2001:db9::/48")
	if !p32.ContainsPrefix(p48) || p48.ContainsPrefix(p32) {
		t.Error("ContainsPrefix wrong")
	}
	if !p32.ContainsPrefix(p32) {
		t.Error("prefix must contain itself")
	}
	if !p32.Overlaps(p48) || !p48.Overlaps(p32) {
		t.Error("Overlaps wrong for nested")
	}
	if p48.Overlaps(other) {
		t.Error("Overlaps wrong for disjoint")
	}
}

func TestParentChild(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	if p.Parent(4) != MustParsePrefix("2001:db0::/28") {
		t.Errorf("Parent: %v", p.Parent(4))
	}
	if p.Parent(40) != MustParsePrefix("::/0") {
		t.Errorf("Parent clamp: %v", p.Parent(40))
	}
	c := p.Child(4, 0xa)
	if c != MustParsePrefix("2001:db8:a000::/36") {
		t.Errorf("Child: %v", c)
	}
	// SubprefixOfNibble covers the paper's "2001:db8:[0-f]000::/36" walk.
	seen := map[Prefix]bool{}
	for v := byte(0); v < 16; v++ {
		sp := p.SubprefixOfNibble(v)
		if sp.Bits() != 36 || !p.ContainsPrefix(sp) {
			t.Fatalf("SubprefixOfNibble(%x) = %v", v, sp)
		}
		seen[sp] = true
	}
	if len(seen) != 16 {
		t.Errorf("got %d distinct subprefixes, want 16", len(seen))
	}
}

func TestFirstLast(t *testing.T) {
	p := MustParsePrefix("2001:db8::/64")
	if p.First() != MustParseAddr("2001:db8::") {
		t.Errorf("First: %v", p.First())
	}
	if p.Last() != MustParseAddr("2001:db8::ffff:ffff:ffff:ffff") {
		t.Errorf("Last: %v", p.Last())
	}
	if p.NumAddressesLog2() != 64 {
		t.Errorf("NumAddressesLog2: %d", p.NumAddressesLog2())
	}
}

func TestNthAddr(t *testing.T) {
	p := MustParsePrefix("2001:db8::/64")
	if p.NthAddr(0) != p.First() {
		t.Error("NthAddr(0)")
	}
	if p.NthAddr(255) != MustParseAddr("2001:db8::ff") {
		t.Errorf("NthAddr(255): %v", p.NthAddr(255))
	}
}

func TestSlash64(t *testing.T) {
	a := MustParseAddr("2001:db8:1:2:3:4:5:6")
	if Slash64(a) != MustParsePrefix("2001:db8:1:2::/64") {
		t.Errorf("Slash64: %v", Slash64(a))
	}
}

func TestComparePrefix(t *testing.T) {
	a := MustParsePrefix("2001:db8::/32")
	b := MustParsePrefix("2001:db8::/48")
	c := MustParsePrefix("2001:db9::/32")
	if ComparePrefix(a, b) != -1 || ComparePrefix(b, a) != 1 {
		t.Error("length ordering wrong")
	}
	if ComparePrefix(a, c) != -1 || ComparePrefix(a, a) != 0 {
		t.Error("address ordering wrong")
	}
}

func TestPrefixProperty(t *testing.T) {
	// Any address is contained by the prefix built from it at any length,
	// and masking is idempotent.
	f := func(raw [16]byte, bits uint8) bool {
		b := int(bits) % 129
		a := AddrFrom16(raw)
		p := PrefixFrom(a, b)
		if !p.Contains(a) {
			return false
		}
		return PrefixFrom(p.Addr(), b) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixMapLPM(t *testing.T) {
	m := NewPrefixMap[string]()
	m.Insert(MustParsePrefix("2001:db8::/32"), "as32")
	m.Insert(MustParsePrefix("2001:db8:1::/48"), "as48")
	m.Insert(MustParsePrefix("2000::/3"), "global")
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}

	p, v, ok := m.Lookup(MustParseAddr("2001:db8:1::5"))
	if !ok || v != "as48" || p.Bits() != 48 {
		t.Errorf("LPM: %v %v %v", p, v, ok)
	}
	_, v, ok = m.Lookup(MustParseAddr("2001:db8:2::5"))
	if !ok || v != "as32" {
		t.Errorf("LPM fallback: %v", v)
	}
	_, v, ok = m.Lookup(MustParseAddr("2a00::1"))
	if !ok || v != "global" {
		t.Errorf("LPM shortest: %v", v)
	}
	if _, _, ok := m.Lookup(MustParseAddr("fe80::1")); ok {
		t.Error("lookup outside all prefixes matched")
	}

	all := m.LookupAll(MustParseAddr("2001:db8:1::5"))
	if len(all) != 3 || all[0].Bits() != 48 || all[2].Bits() != 3 {
		t.Errorf("LookupAll: %v", all)
	}

	if !m.Contains(MustParseAddr("2001:db8::1")) {
		t.Error("Contains failed")
	}

	// Exact get / delete.
	if v, ok := m.Get(MustParsePrefix("2001:db8::/32")); !ok || v != "as32" {
		t.Error("Get failed")
	}
	if _, ok := m.Get(MustParsePrefix("2001:db8::/33")); ok {
		t.Error("Get matched non-exact prefix")
	}
	if !m.Delete(MustParsePrefix("2001:db8:1::/48")) || m.Len() != 2 {
		t.Error("Delete failed")
	}
	if m.Delete(MustParsePrefix("2001:db8:1::/48")) {
		t.Error("double Delete succeeded")
	}
	_, v, _ = m.Lookup(MustParseAddr("2001:db8:1::5"))
	if v != "as32" {
		t.Error("LPM after delete wrong")
	}
}

func TestPrefixMapReplaceAndWalk(t *testing.T) {
	m := NewPrefixMap[int]()
	p := MustParsePrefix("2001:db8::/32")
	m.Insert(p, 1)
	m.Insert(p, 2)
	if m.Len() != 1 {
		t.Errorf("replace should not grow: %d", m.Len())
	}
	if v, _ := m.Get(p); v != 2 {
		t.Errorf("replaced value: %d", v)
	}
	m.Insert(MustParsePrefix("2001:db9::/32"), 3)
	sum := 0
	m.Walk(func(_ Prefix, v int) bool { sum += v; return true })
	if sum != 5 {
		t.Errorf("Walk sum = %d", sum)
	}
	// Early stop.
	n := 0
	m.Walk(func(_ Prefix, _ int) bool { n++; return false })
	if n != 1 {
		t.Errorf("Walk early-stop visited %d", n)
	}
	ps := m.Prefixes()
	if len(ps) != 2 || !ps[0].Addr().Less(ps[1].Addr()) {
		t.Errorf("Prefixes order: %v", ps)
	}
}

func TestPrefixSet(t *testing.T) {
	s := NewPrefixSet()
	s.Add(MustParsePrefix("2001:db8::/32"))
	s.Add(MustParsePrefix("2001:db8:f::/48"))
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Has(MustParsePrefix("2001:db8::/32")) {
		t.Error("Has failed")
	}
	if !s.Contains(MustParseAddr("2001:db8:1::1")) {
		t.Error("Contains failed")
	}
	p, ok := s.Match(MustParseAddr("2001:db8:f::1"))
	if !ok || p.Bits() != 48 {
		t.Errorf("Match: %v %v", p, ok)
	}
	count := 0
	s.Walk(func(Prefix) bool { count++; return true })
	if count != 2 {
		t.Errorf("Walk visited %d", count)
	}
	if !s.Delete(MustParsePrefix("2001:db8:f::/48")) || s.Len() != 1 {
		t.Error("Delete failed")
	}
}

func TestSetOperations(t *testing.T) {
	a1 := MustParseAddr("2001:db8::1")
	a2 := MustParseAddr("2001:db8::2")
	a3 := MustParseAddr("2001:db8::3")
	s := SetOf(a1, a2)
	if s.Len() != 2 || !s.Has(a1) || s.Has(a3) {
		t.Fatal("SetOf wrong")
	}
	if !s.Add(a3) || s.Add(a3) {
		t.Error("Add return values wrong")
	}
	other := SetOf(a2, a3)
	if got := s.Intersect(other); got.Len() != 2 {
		t.Errorf("Intersect: %d", got.Len())
	}
	if got := s.IntersectCount(other); got != 2 {
		t.Errorf("IntersectCount: %d", got)
	}
	if got := s.Diff(other); got.Len() != 1 || !got.Has(a1) {
		t.Errorf("Diff: %v", got)
	}
	u := SetOf(a1).Union(SetOf(a2))
	if u.Len() != 2 {
		t.Errorf("Union: %d", u.Len())
	}
	c := s.Clone()
	c.Delete(a1)
	if !s.Has(a1) {
		t.Error("Clone aliases original")
	}
	sorted := s.Sorted()
	if len(sorted) != 3 || !sorted[0].Less(sorted[1]) || !sorted[1].Less(sorted[2]) {
		t.Errorf("Sorted: %v", sorted)
	}
	var sl []Addr
	sl = append(sl, a3, a1, a2)
	SortAddrs(sl)
	if sl[0] != a1 || sl[2] != a3 {
		t.Errorf("SortAddrs: %v", sl)
	}
	s2 := NewSet(0)
	s2.AddSlice(sl)
	s2.AddAll(other)
	if s2.Len() != 3 {
		t.Errorf("AddSlice/AddAll: %d", s2.Len())
	}
}

func BenchmarkPrefixMapLookup(b *testing.B) {
	m := NewPrefixMap[int]()
	r := newBenchStream()
	addrs := make([]Addr, 1024)
	for i := 0; i < 10000; i++ {
		a := AddrFromUint64s(0x2001<<48|uint64(i)<<16, 0)
		m.Insert(PrefixFrom(a, 32+(i%5)*8), i)
	}
	for i := range addrs {
		addrs[i] = AddrFromUint64s(0x2001<<48|uint64(r.Uint64n(10000))<<16, r.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(addrs[i%len(addrs)])
	}
}

// TestSortAddrsMatchesReference pins SortAddrs to a comparison sort on
// Compare: over random slices (empty and tiny ones, duplicates, and runs
// sharing a high word so the low word decides), then over shaped inputs
// at every length around the radix sort's insertion-sort cutoff —
// all-equal, already sorted, reversed, keys differing only in the last
// byte of Lo or of Hi, 15-byte shared prefixes and heavy duplicates.
func TestSortAddrsMatchesReference(t *testing.T) {
	r := newBenchStream()
	check := func(name string, addrs []Addr) {
		t.Helper()
		want := slices.Clone(addrs)
		slices.SortFunc(want, Addr.Compare)
		SortAddrs(addrs)
		if !slices.Equal(addrs, want) {
			t.Fatalf("%s (n=%d): SortAddrs differs from the reference sort", name, len(addrs))
		}
	}
	for trial := 0; trial < 400; trial++ {
		n := trial % 4 // lengths 0–3 first, then larger
		if trial >= 40 {
			n = int(r.Uint64n(600))
		}
		his := 1 + r.Uint64n(8) // few distinct high words: many ties
		addrs := make([]Addr, n)
		for i := range addrs {
			addrs[i] = AddrFromUint64s(0x2001<<48|r.Uint64n(his), r.Uint64n(1+uint64(n)))
			if i > 0 && r.Uint64n(4) == 0 {
				addrs[i] = addrs[r.Uint64n(uint64(i))]
			}
		}
		check("random", addrs)
	}

	base := AddrFromUint64s(0x2001_0db8_1234_5678, 0x9abc_def0_1122_3344)
	shapes := []struct {
		name string
		gen  func(i, n int) Addr
	}{
		{"all-equal", func(i, n int) Addr { return base }},
		{"sorted", func(i, n int) Addr { return AddrFromUint64s(base.Hi(), uint64(i)*0x1_0001) }},
		{"reversed", func(i, n int) Addr { return AddrFromUint64s(base.Hi()+uint64(n-i)<<20, uint64(n-i)) }},
		{"last-lo-byte", func(i, n int) Addr { return AddrFromUint64s(base.Hi(), base.Lo()&^0xff|r.Uint64n(256)) }},
		{"last-hi-byte", func(i, n int) Addr { return AddrFromUint64s(base.Hi()&^0xff|r.Uint64n(256), base.Lo()) }},
		{"15-byte-prefix", func(i, n int) Addr { a := base; a[15] = byte(n - i); return a }},
		{"duplicates", func(i, n int) Addr { return AddrFromUint64s(base.Hi()+r.Uint64n(3)<<40, r.Uint64n(3)) }},
		{"full-range", func(i, n int) Addr { return AddrFromUint64s(r.Uint64(), r.Uint64()) }},
	}
	var lengths []int
	for _, at := range []int{2, radixCutoff, 2 * radixCutoff, 256, 256 * radixCutoff} {
		lengths = append(lengths, at-1, at, at+1)
	}
	for _, sh := range shapes {
		for _, n := range lengths {
			addrs := make([]Addr, n)
			for i := range addrs {
				addrs[i] = sh.gen(i, n)
			}
			check(sh.name, addrs)
		}
	}
}

// BenchmarkSortAddrs sorts three shapes: "clustered" is 2^14 addresses
// in 2^12 /64s, so many comparisons tie on the high word — a spill run or
// a scan set; "shard" is 6 500 addresses spread over a /32, about one
// resident shard of the timeline's cumulative input set as a checkpoint
// sorts it; "small" is 40 addresses over a /32, about one admission
// batch as the service's active table sorts it every sweep.
func BenchmarkSortAddrs(b *testing.B) {
	for _, bc := range []struct {
		name     string
		n        int
		slash64s uint64
	}{
		{"clustered", 1 << 14, 1 << 12},
		{"shard", 6500, 1 << 32},
		{"small", 40, 1 << 32},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := newBenchStream()
			src := make([]Addr, bc.n)
			for i := range src {
				src[i] = AddrFromUint64s(0x2001<<48|r.Uint64n(bc.slash64s), r.Uint64())
			}
			buf := make([]Addr, len(src))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				SortAddrs(buf)
			}
		})
	}
}

func BenchmarkSetAdd(b *testing.B) {
	r := newBenchStream()
	s := NewSet(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(AddrFromUint64s(r.Uint64(), r.Uint64()))
	}
}
