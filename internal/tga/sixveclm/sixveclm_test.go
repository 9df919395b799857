package sixveclm

import (
	"testing"

	"hitlist6/internal/ip6"
)

func seeds() []ip6.Addr {
	var out []ip6.Addr
	p := ip6.MustParsePrefix("2a01:e00:4::/64")
	for i := uint64(1); i <= 25; i++ {
		out = append(out, p.NthAddr(i))
	}
	q := ip6.MustParsePrefix("2604:a880:2::/64")
	for i := uint64(0); i < 8; i++ {
		out = append(out, q.NthAddr(i*0x10+1))
	}
	return out
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

func TestGenerateStaysInSeedNetworks(t *testing.T) {
	g := New(DefaultConfig())
	if g.Name() != "6VecLM" {
		t.Error("name")
	}
	s := seeds()
	out := emit(g, s, 300)
	if len(out) == 0 {
		t.Fatal("nothing generated")
	}
	nets := make(map[ip6.Prefix]bool)
	for _, a := range s {
		nets[ip6.Slash64(a)] = true
	}
	for _, a := range out {
		if !nets[ip6.Slash64(a)] {
			t.Fatalf("candidate %v outside seed networks", a)
		}
	}
	seedSet := ip6.SetOf(s...)
	for _, a := range out {
		if seedSet.Has(a) {
			t.Fatalf("emitted seed %v", a)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := seeds()
	a := emit(New(DefaultConfig()), s, 100)
	b := emit(New(DefaultConfig()), s, 100)
	if len(a) != len(b) {
		t.Fatal("length differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("order differs")
		}
	}
}

func TestModelLearnsIIDStructure(t *testing.T) {
	// Seeds whose IIDs live entirely in the low 16 bits: novel candidates
	// (seeds themselves are deduplicated away) must still overwhelmingly
	// keep the high IID nibbles at zero — the learned structure.
	var s []ip6.Addr
	p := ip6.MustParsePrefix("2a01:e00:5::/64")
	for i := uint64(0); i < 40; i++ {
		s = append(s, p.NthAddr(i*16+1))
	}
	g := New(DefaultConfig())
	out := emit(g, s, 200)
	if len(out) == 0 {
		t.Fatal("nothing generated")
	}
	structured := 0
	for _, a := range out {
		zeroHigh := true
		for pos := 16; pos < 24; pos++ {
			if a.Nibble(pos) != 0 {
				zeroHigh = false
				break
			}
		}
		if zeroHigh {
			structured++
		}
	}
	if structured < len(out)*8/10 {
		t.Errorf("IID structure not learned: %d/%d keep high nibbles zero", structured, len(out))
	}
}

func TestGenerateEdgeCases(t *testing.T) {
	g := New(DefaultConfig())
	if emit(g, nil, 100) != nil {
		t.Error("nil seeds")
	}
	if emit(g, seeds(), 0) != nil {
		t.Error("zero budget")
	}
}
