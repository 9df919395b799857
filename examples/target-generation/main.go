// Target generation: feed known-responsive seeds to the five generators
// (6Tree, 6Graph, 6GAN, 6VecLM, distance clustering), scan the candidates,
// and compare hit rates — the Section 6 workflow.
//
// Each generator is a tga.ViewStreamer: a model fit to a sharded seed
// view (tga.SeedViewOf turns the flat seed list into one) and sampled by
// EmitView. Candidates stream straight from each generator into the scan
// engine (tga.NewViewSource → Scanner.StreamResponsiveFrom, which
// returns each protocol's responders as an ip6.SortedShardSet): the
// candidate list is never materialized, which is how the pipeline stays
// flat in memory at paper scale (6Graph alone proposes 125.8 M addresses
// there).
//
//	go run ./examples/target-generation
package main

import (
	"context"
	"fmt"
	"log"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/tga"
	"hitlist6/internal/tga/dc"
	"hitlist6/internal/tga/sixgan"
	"hitlist6/internal/tga/sixgraph"
	"hitlist6/internal/tga/sixtree"
	"hitlist6/internal/tga/sixveclm"
	"hitlist6/internal/worldgen"
)

func main() {
	world, err := worldgen.Generate(worldgen.Params{Seed: 5, Scale: 1.0 / 5000, TailASes: 40, ScanIntervalDays: 7})
	if err != nil {
		log.Fatal(err)
	}
	day := worldgen.EndDay

	// Seeds: a 60 % sample of the responsive hosts — a stand-in for the
	// hitlist's responsive set, which never covers everything; the
	// generators' job is to find the remainder.
	var seeds []ip6.Addr
	world.Net.WalkHosts(func(h *netmodel.Host) bool {
		if h.RespondsTo(netmodel.ICMP, day) && rng.Mix(h.Addr.Hi(), h.Addr.Lo(), 0x5eed)%10 < 6 {
			seeds = append(seeds, h.Addr)
		}
		return true
	})
	ip6.SortAddrs(seeds)
	fmt.Printf("%d responsive seeds\n\n", len(seeds))

	cfg := scan.DefaultConfig(5)
	cfg.LossRate = 0
	scanner := scan.New(world.Net, cfg)
	ctx := context.Background()

	view := tga.SeedViewOf(seeds)
	gens := []tga.ViewStreamer{
		sixgraph.New(sixgraph.DefaultConfig()),
		sixtree.New(sixtree.DefaultConfig()),
		dc.New(dc.DefaultConfig()),
		sixgan.New(sixgan.DefaultConfig()),
		sixveclm.New(sixveclm.DefaultConfig()),
	}
	fmt.Printf("%-8s %10s %12s %10s\n", "algo", "candidates", "responsive", "hit rate")
	for _, g := range gens {
		// Generate → probe without a candidate slice: the engine pulls
		// the generator's stream shard by shard.
		src := tga.NewViewSource(g, view, 40000)
		sets, _, err := scanner.StreamResponsiveFrom(ctx, src, []netmodel.Protocol{netmodel.ICMP}, day)
		if err != nil {
			log.Fatal(err)
		}
		hits := sets[netmodel.ICMP].Len()
		rate := 0.0
		if src.Emitted() > 0 {
			rate = 100 * float64(hits) / float64(src.Emitted())
		}
		fmt.Printf("%-8s %10d %12d %9.1f%%\n", g.Name(), src.Emitted(), hits, rate)
	}
	fmt.Println("\npaper shape: DC has the best hit rate; 6Graph/6Tree the most new addresses;")
	fmt.Println("6GAN/6VecLM contribute little (hit rates below the structural miners).")
}
