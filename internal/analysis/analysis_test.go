package analysis

import (
	"strings"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
)

func testTable() *netmodel.ASTable {
	return netmodel.NewASTable([]*netmodel.AS{
		{ASN: 1, Name: "Big", Announced: []ip6.Prefix{ip6.MustParsePrefix("2001:1::/32")}, AnnouncedFrom: []int{0}},
		{ASN: 2, Name: "Small", Announced: []ip6.Prefix{ip6.MustParsePrefix("2001:2::/32")}, AnnouncedFrom: []int{0}},
	})
}

func TestByASAndCDF(t *testing.T) {
	set := ip6.NewSet(0)
	big := ip6.MustParsePrefix("2001:1::/32")
	small := ip6.MustParsePrefix("2001:2::/32")
	for i := uint64(0); i < 9; i++ {
		set.Add(big.NthAddr(i))
	}
	set.Add(small.NthAddr(0))
	set.Add(ip6.MustParseAddr("3fff::1")) // unrouted

	counts := ByAS(set, testTable())
	if len(counts) != 3 {
		t.Fatalf("counts: %+v", counts)
	}
	if counts[0].ASN != 1 || counts[0].Count != 9 {
		t.Errorf("top AS: %+v", counts[0])
	}
	if counts[0].Name != "Big" {
		t.Errorf("name: %q", counts[0].Name)
	}

	cdf := RankCDF(counts)
	if cdf.Total != 11 {
		t.Errorf("total: %d", cdf.Total)
	}
	if got := cdf.At(1); got < 0.81 || got > 0.82 {
		t.Errorf("At(1) = %v", got)
	}
	if cdf.At(3) != 1.0 {
		t.Errorf("At(3) = %v", cdf.At(3))
	}
	if cdf.At(99) != 1.0 || cdf.At(0) != 0 {
		t.Error("At clamping")
	}
	if cdf.RanksFor(0.5) != 1 || cdf.RanksFor(0.99) != 3 {
		t.Errorf("RanksFor: %d %d", cdf.RanksFor(0.5), cdf.RanksFor(0.99))
	}
	pts := cdf.SeriesPoints()
	if len(pts) == 0 || pts[len(pts)-1].Frac != 1.0 {
		t.Errorf("series: %+v", pts)
	}
}

// TestByASMemoizationExact: the per-prefix lookup memo must not change
// results when the table carries announcements longer than /48 (memo key
// widens to the longest announced length) — the CDN-specifics case.
func TestByASMemoizationExact(t *testing.T) {
	big := ip6.MustParsePrefix("2001:1::/32")
	// A /64 specific inside Big's /32, announced by a different AS: the
	// two origins share every bit down to /48, so a /48-keyed memo would
	// misattribute one of them.
	table := netmodel.NewASTable([]*netmodel.AS{
		{ASN: 1, Name: "Big", Announced: []ip6.Prefix{big}, AnnouncedFrom: []int{0}},
		{ASN: 3, Name: "CDN", Announced: []ip6.Prefix{ip6.MustParsePrefix("2001:1::/64")}, AnnouncedFrom: []int{0}},
	})
	if got := table.MaxAnnouncedBits(); got != 64 {
		t.Fatalf("MaxAnnouncedBits = %d", got)
	}
	set := ip6.NewSet(0)
	for i := uint64(0); i < 5; i++ {
		set.Add(ip6.MustParsePrefix("2001:1::/64").NthAddr(i)) // CDN specific
	}
	for i := uint64(0); i < 7; i++ {
		set.Add(ip6.MustParsePrefix("2001:1:0:1::/64").NthAddr(i)) // Big, same /48 as the specific
	}
	counts := ByAS(set, table)
	if len(counts) != 2 {
		t.Fatalf("counts: %+v", counts)
	}
	if counts[0].ASN != 1 || counts[0].Count != 7 || counts[1].ASN != 3 || counts[1].Count != 5 {
		t.Errorf("attribution: %+v", counts)
	}
}

// benchTable builds a BGP-shaped table: announcements spread over many
// prefix lengths, which is exactly what makes longest-prefix matching
// expensive (one map probe per populated length, all of them for
// unrouted addresses).
func benchTable(b *testing.B) (*netmodel.ASTable, ip6.Set) {
	b.Helper()
	var ases []*netmodel.AS
	lens := []int{20, 24, 28, 32, 36, 40, 44, 48}
	asn := 1
	for i, bits := range lens {
		for j := 0; j < 24; j++ {
			p := ip6.PrefixFrom(ip6.AddrFromUint64s(0x2001_0000_0000_0000+uint64(i)<<40+uint64(j)<<(uint(128-bits)-64), 0), bits)
			ases = append(ases, &netmodel.AS{
				ASN: asn, Name: "AS", Announced: []ip6.Prefix{p}, AnnouncedFrom: []int{0},
			})
			asn++
		}
	}
	table := netmodel.NewASTable(ases)
	set := ip6.NewSet(0)
	// Dense hitlist-style population: many addresses per routed prefix,
	// plus an unrouted tail that probes every populated length.
	n := 0
	for _, as := range ases {
		p := as.Announced[0]
		for i := uint64(0); i < 400; i++ {
			set.Add(p.NthAddr(i * 131))
			n++
		}
	}
	for i := uint64(0); i < 20_000; i++ {
		set.Add(ip6.MustParsePrefix("3fff::/20").NthAddr(i * 77)) // unrouted
	}
	return table, set
}

// BenchmarkByAS measures per-AS aggregation over a BGP-shaped table —
// the memoization target: one longest-prefix lookup per /48 instead of
// one per address.
func BenchmarkByAS(b *testing.B) {
	table, set := benchTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := ByAS(set, table)
		if len(counts) < 100 {
			b.Fatalf("counts: %d", len(counts))
		}
	}
}

func TestOverlap(t *testing.T) {
	a := ip6.SetOf(ip6.MustParseAddr("2001::1"), ip6.MustParseAddr("2001::2"))
	b := ip6.SetOf(ip6.MustParseAddr("2001::2"), ip6.MustParseAddr("2001::3"), ip6.MustParseAddr("2001::4"))
	m := Overlap([]string{"a", "b"}, []ip6.Set{a, b})
	if m[0][1] != 50 {
		t.Errorf("a∩b/a: %v", m[0][1])
	}
	if m[1][0] < 33.3 || m[1][0] > 33.4 {
		t.Errorf("a∩b/b: %v", m[1][0])
	}
	if m[0][0] != 0 || m[1][1] != 0 {
		t.Error("diagonal must stay zero")
	}
	// Empty set row is all zeros, no panic.
	m = Overlap([]string{"a", "e"}, []ip6.Set{a, ip6.NewSet(0)})
	if m[1][0] != 0 {
		t.Error("empty set row")
	}
}

func TestPrefixLenCDF(t *testing.T) {
	cdf := PrefixLenCDF([]ip6.Prefix{
		ip6.MustParsePrefix("2001::/32"),
		ip6.MustParsePrefix("2001:1::/64"),
		ip6.MustParsePrefix("2001:2::/64"),
		ip6.MustParsePrefix("2001:3::/96"),
	})
	if cdf[31] != 0 || cdf[32] != 0.25 || cdf[63] != 0.25 {
		t.Errorf("low lengths: %v %v %v", cdf[31], cdf[32], cdf[63])
	}
	if cdf[64] != 0.75 || cdf[128] != 1.0 {
		t.Errorf("high lengths: %v %v", cdf[64], cdf[128])
	}
	empty := PrefixLenCDF(nil)
	if empty[128] != 0 {
		t.Error("empty CDF")
	}
}

func TestHumanize(t *testing.T) {
	cases := map[int]string{
		31:         "31",
		1800:       "1.8 k",
		1000:       "1 k",
		550600:     "550.6 k",
		3200000:    "3.2 M",
		1000000:    "1 M",
		2500000000: "2.5 G",
	}
	for n, want := range cases {
		if got := Humanize(n); got != want {
			t.Errorf("Humanize(%d) = %q, want %q", n, got, want)
		}
	}
	if Pct(1, 4) != "25.0 %" || Pct(1, 0) != "n/a" {
		t.Error("Pct")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Year", "Addresses")
	tb.Row("2018", 1800000)
	tb.Row("2022", "3.2 M")
	out := tb.String()
	if !strings.Contains(out, "Year") || !strings.Contains(out, "3.2 M") {
		t.Errorf("render: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("lines: %d", len(lines))
	}
}

func TestEUI64Analysis(t *testing.T) {
	set := ip6.NewSet(0)
	mac1 := ip6.MAC{0x00, 0x1e, 0x73, 1, 2, 3}
	mac2 := ip6.MAC{0x28, 0x6f, 0x7f, 9, 9, 9}
	// mac1 under three prefixes (rotation), mac2 once, plus non-EUI.
	for i, ps := range []string{"2003:1::/64", "2003:2::/64", "2003:3::/64"} {
		set.Add(ip6.AddrFromMAC(ip6.MustParsePrefix(ps), mac1))
		_ = i
	}
	set.Add(ip6.AddrFromMAC(ip6.MustParsePrefix("2003:4::/64"), mac2))
	set.Add(ip6.MustParseAddr("2001::1"))

	st := EUI64Analysis(set)
	if st.Total != 5 || st.EUI64 != 4 {
		t.Errorf("totals: %+v", st)
	}
	if st.DistinctMACs != 2 || st.TopMACAddrs != 3 || st.SingleUseMACs != 1 {
		t.Errorf("macs: %+v", st)
	}
	if st.TopOUI != [3]byte{0x00, 0x1e, 0x73} {
		t.Errorf("top OUI: %v", st.TopOUI)
	}
}

// TestEUI64TopOUITie: two MACs tied at the top count report the smaller
// MAC's OUI, on every run and for either insertion order.
func TestEUI64TopOUITie(t *testing.T) {
	small := ip6.MAC{0x00, 0x1e, 0x73, 1, 2, 3}
	large := ip6.MAC{0x28, 0x6f, 0x7f, 9, 9, 9}
	for _, order := range [][2]ip6.MAC{{small, large}, {large, small}} {
		for run := 0; run < 50; run++ {
			set := ip6.NewSet(0)
			for _, mac := range order {
				for _, ps := range []string{"2003:1::/64", "2003:2::/64"} {
					set.Add(ip6.AddrFromMAC(ip6.MustParsePrefix(ps), mac))
				}
			}
			st := EUI64Analysis(set)
			if st.TopMACAddrs != 2 || st.TopOUI != small.OUI() {
				t.Fatalf("order %v run %d: top %d addresses, OUI %x; want 2, %x",
					order, run, st.TopMACAddrs, st.TopOUI, small.OUI())
			}
		}
	}
}
