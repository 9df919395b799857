package tga_test

import (
	"reflect"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/tga"
	"hitlist6/internal/tga/dc"
	"hitlist6/internal/tga/sixgan"
	"hitlist6/internal/tga/sixgraph"
	"hitlist6/internal/tga/sixtree"
	"hitlist6/internal/tga/sixveclm"
)

// TestIncrementalModelMatchesScratch grows the seed set shard by shard
// across rounds through epoch-delta frozen views and checks, every
// round, that each generator's persistent incremental model emits
// byte-identically to a fresh generator on the same view and to a fresh
// generator over the flat seed slice. It then hands the same generator a
// view of a smaller, unrelated seed set — no span is a subset of the
// kept one, so 6Tree must fall back to a rebuild — and finally the grown
// view again; both must match a fresh generator exactly.
func TestIncrementalModelMatchesScratch(t *testing.T) {
	var pool []ip6.Addr
	p1 := ip6.MustParsePrefix("2001:db9:1::/64")
	for i := uint64(0); i < 24; i += 2 { // dense run, gaps of 2
		pool = append(pool, p1.NthAddr(i))
	}
	p2 := ip6.MustParsePrefix("2a02:db8:7::/64")
	for i := uint64(0); i < 48; i++ { // consecutive run across many shards
		pool = append(pool, p2.NthAddr(i+1))
	}
	var foreign []ip6.Addr
	p3 := ip6.MustParsePrefix("2600:9000:9::/64")
	for i := uint64(0); i < 20; i++ { // dense run, gaps of 3
		foreign = append(foreign, p3.NthAddr(100+3*i))
	}

	cases := []struct {
		budget int
		fresh  func() tga.ViewStreamer
	}{
		{400, func() tga.ViewStreamer { return sixtree.New(sixtree.DefaultConfig()) }},
		{400, func() tga.ViewStreamer { return sixgraph.New(sixgraph.DefaultConfig()) }},
		{400, func() tga.ViewStreamer { return sixgan.New(sixgan.DefaultConfig()) }},
		{120, func() tga.ViewStreamer { return sixveclm.New(sixveclm.DefaultConfig()) }},
		{400, func() tga.ViewStreamer { return dc.New(dc.DefaultConfig()) }},
	}
	const rounds = 4
	for _, tc := range cases {
		inc := tc.fresh()
		t.Run(inc.Name(), func(t *testing.T) {
			check := func(label string, v *tga.SeedView) []ip6.Addr {
				got := emitAll(inc, v, tc.budget)
				if want := emitAll(tc.fresh(), v, tc.budget); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: incremental emission diverges from scratch (%d vs %d candidates)",
						label, len(got), len(want))
				}
				return got
			}

			set := ip6.NewShardedSet()
			var prev *ip6.SortedShardSet
			var grown *tga.SeedView
			for r := 0; r < rounds; r++ {
				for _, a := range pool[r*len(pool)/rounds : (r+1)*len(pool)/rounds] {
					set.Add(a)
				}
				frozen, _, shared := ip6.FreezeSortedDelta(set, prev)
				if r > 0 && shared == 0 {
					t.Fatalf("round %d: delta freeze shared no shards", r)
				}
				prev = frozen
				grown = tga.NewSeedView(frozen)
				got := check("growth round", grown)
				flat := emitAll(tc.fresh(), tga.SeedViewOf(set.Merge().Sorted()), tc.budget)
				if !reflect.DeepEqual(got, flat) {
					t.Fatalf("round %d: view emission diverges from the flat seed slice (%d vs %d candidates)",
						r, len(got), len(flat))
				}
				if r == rounds-1 && len(got) == 0 {
					t.Fatal("final round emitted nothing — test exercised no candidates")
				}
			}
			if len(check("foreign view", tga.SeedViewOf(foreign))) == 0 {
				t.Fatal("foreign view emitted nothing")
			}
			check("grown view again", grown)
		})
	}
}
