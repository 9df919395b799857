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
// across rounds through views of a growing cumulative set and checks, every
// round, that each generator's persistent incremental model emits
// byte-identically to a fresh generator on the same view and to a fresh
// generator over the flat seed slice; every round also hands it the same
// view a second time (nothing added). It then hands the same generator a
// strict-subset view (a shrink: the model resets) and the grown view
// again (a grow-only diff across views of different backing), a view of
// a smaller, unrelated seed set (no span is a subset of the kept one),
// and finally the grown view again; all must match a fresh generator
// exactly. Extra rows pin 6VecLM at Markov order 1 and 6GAN on a seed
// set where no class is well-supported (its single-model fallback).
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
	// Seven seeds of each of three 6GAN classes: none reaches the
	// support of 8 a class model needs.
	var sparse []ip6.Addr
	p4 := ip6.MustParsePrefix("2a03:2880:1::/64")
	for i := uint64(0); i < 7; i++ {
		sparse = append(sparse,
			p4.NthAddr(i+1), // low byte
			ip6.AddrFromUint64s(p4.Addr().Hi(), 0x0211_22ff_fe33_4400+i*0x11), // EUI-64
			ip6.AddrFromUint64s(p4.Addr().Hi(), 0x9e37_79b9_7f4a_7c15*(i+1)),  // random
		)
	}
	var support [sixgan.NumClasses]int
	for _, a := range sparse {
		if support[sixgan.Classify(a)]++; support[sixgan.Classify(a)] >= 8 {
			t.Fatalf("sparse seed set: class %d reaches support 8", sixgan.Classify(a))
		}
	}

	cases := []struct {
		name   string
		budget int
		pool   []ip6.Addr
		fresh  func() tga.ViewStreamer
	}{
		{"6Tree", 400, pool, func() tga.ViewStreamer { return sixtree.New(sixtree.DefaultConfig()) }},
		{"6Graph", 400, pool, func() tga.ViewStreamer { return sixgraph.New(sixgraph.DefaultConfig()) }},
		{"6GAN", 400, pool, func() tga.ViewStreamer { return sixgan.New(sixgan.DefaultConfig()) }},
		{"6VecLM", 120, pool, func() tga.ViewStreamer { return sixveclm.New(sixveclm.DefaultConfig()) }},
		{"DC", 400, pool, func() tga.ViewStreamer { return dc.New(dc.DefaultConfig()) }},
		{"6VecLM-order1", 120, pool, func() tga.ViewStreamer {
			cfg := sixveclm.DefaultConfig()
			cfg.Order = 1
			return sixveclm.New(cfg)
		}},
		{"6GAN-sparse", 400, sparse, func() tga.ViewStreamer { return sixgan.New(sixgan.DefaultConfig()) }},
	}
	const rounds = 4
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inc := tc.fresh()
			check := func(label string, v *tga.SeedView) []ip6.Addr {
				got := emitAll(inc, v, tc.budget)
				if want := emitAll(tc.fresh(), v, tc.budget); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: incremental emission diverges from scratch (%d vs %d candidates)",
						label, len(got), len(want))
				}
				return got
			}

			set := ip6.NewResidentSet()
			var prev *ip6.SortedShardSet
			var grown *tga.SeedView
			for r := 0; r < rounds; r++ {
				for _, a := range tc.pool[r*len(tc.pool)/rounds : (r+1)*len(tc.pool)/rounds] {
					set.Add(a)
				}
				if err := set.Compact(); err != nil {
					t.Fatal(err)
				}
				frozen, err := set.View()
				if err != nil {
					t.Fatal(err)
				}
				shared := 0
				for sh := 0; r > 0 && sh < ip6.AddrShards; sh++ {
					if tga.SameSpan(prev.Shard(sh), frozen.Shard(sh)) {
						shared++
					}
				}
				if r > 0 && shared == 0 {
					t.Fatalf("round %d: view shared no shards", r)
				}
				prev = frozen
				grown = frozen
				got := check("growth round", grown)
				check("zero-Δ round", grown)
				flat := emitAll(tc.fresh(), ip6.SortedOf(set.Merge().Sorted()...), tc.budget)
				if !reflect.DeepEqual(got, flat) {
					t.Fatalf("round %d: view emission diverges from the flat seed slice (%d vs %d candidates)",
						r, len(got), len(flat))
				}
				if r == rounds-1 && len(got) == 0 {
					t.Fatal("final round emitted nothing — test exercised no candidates")
				}
			}
			check("strict-subset view", ip6.SortedOf(tc.pool[:len(tc.pool)/2]...))
			check("grown view after subset", grown)
			if len(check("foreign view", ip6.SortedOf(foreign...))) == 0 {
				t.Fatal("foreign view emitted nothing")
			}
			check("grown view again", grown)
		})
	}
}
