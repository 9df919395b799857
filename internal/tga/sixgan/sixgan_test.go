package sixgan

import (
	"testing"

	"hitlist6/internal/ip6"
)

func TestClassify(t *testing.T) {
	cases := map[string]Class{
		"2001:db9::1":                      ClassLowByte,
		"2001:db9::25":                     ClassLowByte,
		"2001:db9::21e:73ff:fe11:2233":     ClassEUI64,
		"2001:db9::dead:beef:dead:beef":    ClassWordy,
		"2001:db9:0:0:1234:5678:9abc:def1": ClassRandom,
	}
	for s, want := range cases {
		if got := Classify(ip6.MustParseAddr(s)); got != want {
			t.Errorf("Classify(%s) = %v, want %v", s, got, want)
		}
	}
}

func trainingSeeds() []ip6.Addr {
	var out []ip6.Addr
	p := ip6.MustParsePrefix("2a01:e00:3::/64")
	for i := uint64(1); i <= 30; i++ {
		out = append(out, p.NthAddr(i)) // low-byte class
	}
	q := ip6.MustParsePrefix("2600:9000:7::/64")
	for i := uint64(0); i < 10; i++ {
		mac := ip6.MAC{0x00, 0x1e, 0x73, byte(i), 0x22, 0x33}
		out = append(out, ip6.AddrFromMAC(q, mac)) // EUI-64 class
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

func TestGenerate(t *testing.T) {
	g := New(DefaultConfig())
	if g.Name() != "6GAN" {
		t.Error("name")
	}
	seeds := trainingSeeds()
	out := emit(g, seeds, 500)
	if len(out) == 0 {
		t.Fatal("nothing generated")
	}
	if len(out) > 500 {
		t.Errorf("budget exceeded: %d", len(out))
	}
	seedSet := ip6.SetOf(seeds...)
	for _, a := range out {
		if seedSet.Has(a) {
			t.Fatalf("emitted seed %v", a)
		}
		if !a.IsGlobalUnicast() {
			t.Fatalf("non-global candidate %v", a)
		}
	}
	// Candidates should mostly stay in networks resembling the seeds:
	// their first nibbles come from seed distributions.
	inSeedNets := 0
	for _, a := range out {
		if a.Nibble(0) == 0x2 {
			inSeedNets++
		}
	}
	if inSeedNets < len(out)*9/10 {
		t.Errorf("candidates strayed from seed network space: %d/%d", inSeedNets, len(out))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	seeds := trainingSeeds()
	a := emit(New(DefaultConfig()), seeds, 200)
	b := emit(New(DefaultConfig()), seeds, 200)
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
	if emit(g, trainingSeeds(), 0) != nil {
		t.Error("zero budget")
	}
	// Tiny seed sets fall back to a single model.
	out := emit(New(DefaultConfig()), []ip6.Addr{
		ip6.MustParseAddr("2001:db9::1"),
		ip6.MustParseAddr("2001:db9::2"),
	}, 50)
	if len(out) == 0 {
		t.Error("tiny seed set generated nothing")
	}
}
