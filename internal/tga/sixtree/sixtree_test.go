package sixtree

import (
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/tga"
)

// denseSeeds builds seeds across two /64s: one dense structured region and
// one sparse region.
func denseSeeds() []ip6.Addr {
	var out []ip6.Addr
	dense := ip6.MustParsePrefix("2a01:e00:1:1::/64")
	for i := uint64(1); i <= 40; i++ {
		out = append(out, dense.NthAddr(i))
	}
	sparse := ip6.MustParsePrefix("2600:9000:55::/64")
	out = append(out, sparse.NthAddr(1), sparse.NthAddr(0x8000_0000))
	return out
}

// emit collects a generator's EmitView stream over a flat seed slice.
func emit(g *Generator, seeds []ip6.Addr, budget int) []ip6.Addr {
	var out []ip6.Addr
	g.EmitView(tga.SeedViewOf(seeds), budget, func(a ip6.Addr) bool {
		out = append(out, a)
		return true
	})
	return out
}

func TestBuildTree(t *testing.T) {
	seeds := denseSeeds()
	leaves := buildTree(seeds, DefaultConfig()).leafList()
	if len(leaves) == 0 {
		t.Fatal("no leaves")
	}
	// Each leaf holds at most MaxLeafSize seeds unless unsplittable.
	for _, leaf := range leaves {
		if len(leaf.seeds) > DefaultConfig().MaxLeafSize {
			// An oversized leaf must be constant in every dimension.
			vs := tga.NibbleValueSets(leaf.seeds)
			for i, v := range vs {
				if len(v) > 1 {
					t.Fatalf("oversized splittable leaf: dim %d has %d values", i, len(v))
				}
			}
		}
	}
}

func TestGenerateExpandsDenseRegion(t *testing.T) {
	seeds := denseSeeds()
	g := New(DefaultConfig())
	if g.Name() != "6Tree" {
		t.Error("name")
	}
	// A bounded budget exercises the density-priority ordering: the dense
	// region must be expanded before the sparse one.
	out := emit(g, seeds, 300)
	if len(out) != 300 {
		t.Fatalf("generated %d, want full budget of 300", len(out))
	}
	seedSet := ip6.SetOf(seeds...)
	dense := ip6.MustParsePrefix("2a01:e00:1:1::/64")
	inDense := 0
	for _, a := range out {
		if seedSet.Has(a) {
			t.Fatalf("emitted seed %v", a)
		}
		if dense.Contains(a) {
			inDense++
		}
	}
	// The dense region dominates generation.
	if float64(inDense) < 0.5*float64(len(out)) {
		t.Errorf("dense region share: %d/%d", inDense, len(out))
	}
	seen := ip6.NewSet(len(out))
	for _, a := range out {
		if !seen.Add(a) {
			t.Fatalf("duplicate %v", a)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	seeds := denseSeeds()
	a := emit(New(DefaultConfig()), seeds, 500)
	b := emit(New(DefaultConfig()), seeds, 500)
	if len(a) != len(b) {
		t.Fatal("length differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("order differs")
		}
	}
}

func TestGenerateEdgeCases(t *testing.T) {
	g := New(DefaultConfig())
	if emit(g, nil, 100) != nil {
		t.Error("nil seeds")
	}
	if emit(g, denseSeeds(), 0) != nil {
		t.Error("zero budget")
	}
	// A single seed has no free dims: nothing to generate.
	out := emit(New(DefaultConfig()), []ip6.Addr{ip6.MustParseAddr("2001:db9::1")}, 10)
	if len(out) != 0 {
		t.Errorf("single seed generated %d", len(out))
	}
}

// BenchmarkEmitView fits a fresh model and samples it each iteration.
func BenchmarkEmitView(b *testing.B) {
	v := tga.SeedViewOf(denseSeeds())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(DefaultConfig()).EmitView(v, 1000, func(ip6.Addr) bool { return true })
	}
}
