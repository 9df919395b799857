package dc

import (
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/tga"
)

func clusterSeeds(p ip6.Prefix, offsets ...uint64) []ip6.Addr {
	out := make([]ip6.Addr, len(offsets))
	for i, o := range offsets {
		out[i] = p.NthAddr(o)
	}
	return out
}

// findClusters runs the model's cluster scan over a flat seed slice.
func findClusters(seeds []ip6.Addr, cfg Config) [][]ip6.Addr {
	sorted := append([]ip6.Addr(nil), seeds...)
	ip6.SortAddrs(sorted)
	return clustersOf(tga.GroupSortedBySlash64(sorted), cfg)
}

// emit collects a generator's EmitView stream over a flat seed slice.
func emit(g *Generator, seeds []ip6.Addr, budget int) []ip6.Addr {
	var out []ip6.Addr
	g.EmitView(ip6.SortedOf(seeds...), budget, func(a ip6.Addr) bool {
		out = append(out, a)
		return true
	})
	return out
}

func TestFindClusters(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db9::/64")
	// A dense run of 10 within gaps ≤ 64, then a far-away pair.
	seeds := clusterSeeds(p, 0, 10, 30, 31, 60, 100, 140, 180, 200, 240, 1<<30, 1<<30+1)
	clusters := findClusters(seeds, DefaultConfig())
	if len(clusters) != 1 {
		t.Fatalf("clusters: %v", clusters)
	}
	c := clusters[0]
	if len(c) != 10 || c[0] != p.NthAddr(0) || c[len(c)-1] != p.NthAddr(240) {
		t.Errorf("cluster: %v", c)
	}
}

func TestFindClustersRespectsGapAndSize(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db9::/64")
	cfg := Config{MinClusterSize: 3, MaxGap: 10, MaxFill: 100}
	// Two runs split by a big gap; second run too small.
	seeds := clusterSeeds(p, 1, 5, 9, 1000, 1001)
	clusters := findClusters(seeds, cfg)
	if len(clusters) != 1 || len(clusters[0]) != 3 {
		t.Fatalf("clusters: %v", clusters)
	}
	// Clusters never span /64 boundaries.
	mixed := append(clusterSeeds(p, 1, 2, 3),
		clusterSeeds(ip6.MustParsePrefix("2001:db9:0:1::/64"), 4, 5, 6)...)
	clusters = findClusters(mixed, cfg)
	if len(clusters) != 2 {
		t.Fatalf("cross-prefix clusters: %v", clusters)
	}
}

func TestGenerateFillsGaps(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db9::/64")
	var offsets []uint64
	for i := uint64(0); i < 10; i++ {
		offsets = append(offsets, i*10)
	}
	seeds := clusterSeeds(p, offsets...) // 0,10,...,90 → span 91, 81 gaps
	g := New(DefaultConfig())
	if g.Name() != "DC" {
		t.Error("name")
	}
	out := emit(g, seeds, 1000)
	if len(out) != 81 {
		t.Fatalf("generated %d, want 81", len(out))
	}
	seedSet := ip6.SetOf(seeds...)
	for _, a := range out {
		if seedSet.Has(a) {
			t.Fatalf("generated seed %v", a)
		}
		if !p.Contains(a) {
			t.Fatalf("candidate %v outside /64", a)
		}
	}
	// Budget respected.
	out = emit(g, seeds, 5)
	if len(out) != 5 {
		t.Errorf("budget: %d", len(out))
	}
	// No seeds → nothing.
	if emit(g, nil, 100) != nil {
		t.Error("no-seed generation")
	}
}

// TestEmitStopsAtTopOfSlash64: a cluster whose last seed has the
// all-ones IID fills only its own span; the walk must not wrap past
// ffff:ffff:ffff:ffff to the bottom of the /64.
func TestEmitStopsAtTopOfSlash64(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db9:ff::/64")
	var seeds []ip6.Addr
	for i := uint64(0); i < 12; i++ { // gaps of 2, ending at the all-ones IID
		seeds = append(seeds, ip6.AddrFromUint64s(p.Addr().Hi(), ^uint64(0)-2*(11-i)))
	}
	out := emit(New(DefaultConfig()), seeds, 100)
	if len(out) != 11 {
		t.Errorf("generated %d candidates, want the 11 in-span gaps", len(out))
	}
	first := seeds[0].Lo()
	for _, a := range out {
		if a.Hi() != p.Addr().Hi() || a.Lo() < first {
			t.Fatalf("candidate %v outside the cluster span", a)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db9::/64")
	var offsets []uint64
	for i := uint64(0); i < 12; i++ {
		offsets = append(offsets, i*7)
	}
	seeds := clusterSeeds(p, offsets...)
	a := emit(New(DefaultConfig()), seeds, 50)
	b := emit(New(DefaultConfig()), seeds, 50)
	if len(a) != len(b) {
		t.Fatal("non-deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("order differs")
		}
	}
}
