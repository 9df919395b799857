// Command tgen runs a target generation algorithm over a seed file and
// prints the candidate addresses.
//
// Usage:
//
//	tgen -algo 6graph -budget 100000 < seeds.txt > candidates.txt
//	tgen -algo dc -min-cluster 10 -max-gap 64 < seeds.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"hitlist6/internal/ip6"
	"hitlist6/internal/tga"
	"hitlist6/internal/tga/dc"
	"hitlist6/internal/tga/sixgan"
	"hitlist6/internal/tga/sixgraph"
	"hitlist6/internal/tga/sixtree"
	"hitlist6/internal/tga/sixveclm"
)

func main() {
	var (
		algo       = flag.String("algo", "6graph", "6tree|6graph|6gan|6veclm|dc")
		budget     = flag.Int("budget", 100000, "max candidates to generate")
		seed       = flag.Uint64("seed", 6, "sampling seed (6gan/6veclm)")
		minCluster = flag.Int("min-cluster", 10, "dc: minimum cluster size")
		maxGap     = flag.Uint64("max-gap", 64, "dc: maximum member distance")
	)
	flag.Parse()

	var seeds []ip6.Addr
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		a, err := ip6.ParseAddr(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		seeds = append(seeds, a)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "reading seeds: %v\n", err)
		os.Exit(1)
	}
	if len(seeds) == 0 {
		fmt.Fprintln(os.Stderr, "no seeds on stdin")
		os.Exit(2)
	}

	var g tga.ViewStreamer
	switch *algo {
	case "6tree":
		g = sixtree.New(sixtree.DefaultConfig())
	case "6graph":
		g = sixgraph.New(sixgraph.DefaultConfig())
	case "6gan":
		cfg := sixgan.DefaultConfig()
		cfg.Seed = *seed
		g = sixgan.New(cfg)
	case "6veclm":
		cfg := sixveclm.DefaultConfig()
		cfg.Seed = *seed
		g = sixveclm.New(cfg)
	case "dc":
		g = dc.New(dc.Config{MinClusterSize: *minCluster, MaxGap: *maxGap, MaxFill: 4096})
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algo)
		os.Exit(2)
	}

	// Stream candidates as the generator emits them instead of
	// materializing the full list: the seed view is built once, and each
	// candidate goes straight to stdout.
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	view := ip6.SortedOf(seeds...)
	emitted := 0
	g.EmitView(view, *budget, func(a ip6.Addr) bool {
		fmt.Fprintln(out, a)
		emitted++
		return true
	})
	fmt.Fprintf(os.Stderr, "%s: %d candidates from %d seeds\n", g.Name(), emitted, view.Len())
}
