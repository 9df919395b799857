package sixgraph

import (
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/tga"
)

func patternSeeds() []ip6.Addr {
	var out []ip6.Addr
	// A strong pattern: 2a01:e00:2:7::XY with both low nibbles varying
	// (two-dimensional wildcard support).
	p := ip6.MustParsePrefix("2a01:e00:2:7::/64")
	for i := uint64(1); i <= 12; i++ {
		out = append(out, p.NthAddr(i*17))
	}
	// Unrelated scattered addresses.
	out = append(out,
		ip6.MustParseAddr("2600:1111::dead:beef"),
		ip6.MustParseAddr("2604:2222::1"),
	)
	return out
}

// mine runs the model's pattern mine over a flat seed slice.
func mine(seeds []ip6.Addr) []Pattern {
	var counts [32][16]int64
	tga.NibbleCounts(seeds, &counts)
	entropy := tga.EntropyFromCounts(&counts, len(seeds))
	return minePatterns(tga.SeedViewOf(seeds).Walk, entropy, DefaultConfig())
}

// enumerate collects a pattern's expansion, up to budget.
func enumerate(p Pattern, budget int) []ip6.Addr {
	var out []ip6.Addr
	EnumerateEach(p, budget, func(a ip6.Addr) bool {
		out = append(out, a)
		return true
	})
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

func TestMine(t *testing.T) {
	patterns := mine(patternSeeds())
	if len(patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	top := patterns[0]
	if top.Support < 4 {
		t.Errorf("top pattern support %d", top.Support)
	}
	if len(top.Wildcards) == 0 || len(top.Wildcards) > DefaultConfig().MaxWildcards {
		t.Errorf("wildcards: %v", top.Wildcards)
	}
	if top.NumCandidatesLog16() != len(top.Wildcards) {
		t.Error("NumCandidatesLog16")
	}
	// Patterns sorted by support.
	for i := 1; i < len(patterns); i++ {
		if patterns[i].Support > patterns[i-1].Support {
			t.Fatal("patterns not sorted by support")
		}
	}
	// Mining nothing yields nothing.
	if mine(nil) != nil {
		t.Error("empty mine")
	}
}

func TestEnumerate(t *testing.T) {
	p := Pattern{Base: ip6.MustParseAddr("2a01:e00:2:7::"), Wildcards: []int{31}}
	out := enumerate(p, 100)
	if len(out) != 16 {
		t.Fatalf("enumerate: %d", len(out))
	}
	seen := ip6.NewSet(16)
	for _, a := range out {
		if !seen.Add(a) {
			t.Fatal("duplicate in enumeration")
		}
		if a.Nibble(30) != 0 {
			t.Fatal("non-wildcard dim changed")
		}
	}
	// Budget respected.
	if len(enumerate(p, 5)) != 5 {
		t.Error("budget")
	}
	// Two wildcards → 256.
	p2 := Pattern{Base: ip6.MustParseAddr("2a01:e00:2:7::"), Wildcards: []int{30, 31}}
	if len(enumerate(p2, 1000)) != 256 {
		t.Error("two-wildcard enumeration")
	}
}

func TestGenerate(t *testing.T) {
	g := New(DefaultConfig())
	if g.Name() != "6Graph" {
		t.Error("name")
	}
	seeds := patternSeeds()
	out := emit(g, seeds, 5000)
	if len(out) == 0 {
		t.Fatal("nothing generated")
	}
	seedSet := ip6.SetOf(seeds...)
	dense := ip6.MustParsePrefix("2a01:e00:2:7::/64")
	inDense := 0
	for _, a := range out {
		if seedSet.Has(a) {
			t.Fatalf("emitted seed %v", a)
		}
		if dense.Contains(a) {
			inDense++
		}
	}
	if float64(inDense) < 0.8*float64(len(out)) {
		t.Errorf("pattern region share: %d/%d", inDense, len(out))
	}
	// Deterministic.
	out2 := emit(New(DefaultConfig()), seeds, 5000)
	if len(out) != len(out2) {
		t.Fatal("non-deterministic")
	}
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("order differs")
		}
	}
}

func TestGenerateProducesMoreThanSupport(t *testing.T) {
	// 6Graph's signature: wildcard enumeration yields far more candidates
	// than seeds.
	g := New(DefaultConfig())
	seeds := patternSeeds()
	out := emit(g, seeds, 100000)
	if len(out) < 5*len(seeds) {
		t.Errorf("expansion factor too low: %d from %d seeds", len(out), len(seeds))
	}
}
