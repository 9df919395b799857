// Package sixgraph reimplements 6Graph (Yang et al., Computer Networks
// 2022): graph-theoretic address pattern mining. Seeds become nodes;
// addresses that agree on all but a few nibbles are linked; dense
// components become patterns — fixed nibbles plus wildcard dimensions —
// which are then enumerated as candidates.
//
// 6Graph is the most aggressive of the structural generators: it wildcards
// up to three dimensions per pattern, which is why the paper measures it
// producing the largest candidate set (125.8 M) at the lowest structural
// hit rate (~3 %), biased towards very dense regions (Free SAS).
package sixgraph

import (
	"sort"

	"hitlist6/internal/ip6"
	"hitlist6/internal/tga"
)

// Config tunes pattern mining.
type Config struct {
	// MinPatternSupport is the minimum component size that forms a
	// pattern.
	MinPatternSupport int
	// MaxWildcards bounds wildcard dimensions per pattern.
	MaxWildcards int
}

// DefaultConfig matches the published defaults at our scale.
func DefaultConfig() Config { return Config{MinPatternSupport: 4, MaxWildcards: 3} }

// Pattern is a mined address pattern: a base address and wildcard
// dimensions.
type Pattern struct {
	Base      ip6.Addr
	Wildcards []int
	Support   int
}

// NumCandidatesLog16 returns the pattern volume as a power of 16.
func (p Pattern) NumCandidatesLog16() int { return len(p.Wildcards) }

// Generator is the 6Graph TGA: nibble counts grown by the seeds each
// view adds; entropy and the pattern mine rerun over the view walk when
// the view added any.
type Generator struct {
	cfg      Config
	kept     tga.KeptSpans
	counts   [32][16]int64
	patterns []Pattern
}

// New returns a 6Graph generator.
func New(cfg Config) *Generator {
	if cfg.MinPatternSupport <= 0 {
		cfg.MinPatternSupport = 4
	}
	if cfg.MaxWildcards <= 0 {
		cfg.MaxWildcards = 3
	}
	return &Generator{cfg: cfg}
}

// Name implements tga.ViewStreamer.
func (g *Generator) Name() string { return "6Graph" }

// minePatterns extracts patterns from the seeds walk visits. The graph's
// connected components are computed implicitly: grouping by "address
// with the k lowest-entropy varying nibbles masked" links exactly the
// addresses that differ only in those dimensions, which is the
// similarity the published edge criterion captures. Mining proceeds from
// 1 wildcard upwards so tight patterns win. Patterns are a pure function
// of the seed set: group membership, support counts and the used-set
// evolve identically under any iteration order, and group keys are
// sorted before pattern extraction — so mining over the sharded view
// walk matches a mine over any flat ordering of the same seeds.
func minePatterns(walk func(func(ip6.Addr) bool), entropy [32]float64, cfg Config) []Pattern {
	// Wildcard dimension order: highest entropy last-32-positions first —
	// structural assignment varies in the low nibbles.
	dims := make([]int, 0, 32)
	for i := 31; i >= 16; i-- { // only IID dims are wildcard candidates
		if entropy[i] > 0 {
			dims = append(dims, i)
		}
	}
	sort.SliceStable(dims, func(a, b int) bool { return entropy[dims[a]] > entropy[dims[b]] })

	var patterns []Pattern
	used := ip6.NewSet(0)
	for k := 1; k <= cfg.MaxWildcards && k <= len(dims); k++ {
		wild := append([]int(nil), dims[:k]...)
		sort.Ints(wild)
		groups := make(map[ip6.Addr]int)
		walk(func(a ip6.Addr) bool {
			if used.Has(a) {
				return true
			}
			masked := a
			for _, d := range wild {
				masked = masked.SetNibble(d, 0)
			}
			groups[masked]++
			return true
		})
		keys := make([]ip6.Addr, 0, len(groups))
		for m, support := range groups {
			if support >= cfg.MinPatternSupport {
				keys = append(keys, m)
			}
		}
		ip6.SortAddrs(keys)
		for _, m := range keys {
			patterns = append(patterns, Pattern{Base: m, Wildcards: wild, Support: groups[m]})
		}
		// Mark every member of an accepted pattern used, so later (wider)
		// rounds do not re-mine them.
		if len(keys) > 0 {
			accepted := ip6.NewSet(len(keys))
			accepted.AddSlice(keys)
			walk(func(a ip6.Addr) bool {
				if used.Has(a) {
					return true
				}
				masked := a
				for _, d := range wild {
					masked = masked.SetNibble(d, 0)
				}
				if accepted.Has(masked) {
					used.Add(a)
				}
				return true
			})
		}
	}
	// Highest support first: enumeration under budget favors dense
	// regions, reproducing the Free SAS bias.
	sort.SliceStable(patterns, func(i, j int) bool { return patterns[i].Support > patterns[j].Support })
	return patterns
}

// EnumerateEach walks a pattern's expansion in canonical wildcard order,
// yielding up to budget addresses (pre-dedup) until yield returns false.
// It returns how many addresses were walked.
func EnumerateEach(p Pattern, budget int, yield func(ip6.Addr) bool) int {
	n := 0
	stopped := false
	var rec func(addr ip6.Addr, d int)
	rec = func(addr ip6.Addr, d int) {
		if stopped || n >= budget {
			return
		}
		if d == len(p.Wildcards) {
			n++
			if !yield(addr) {
				stopped = true
			}
			return
		}
		for v := byte(0); v < 16; v++ {
			rec(addr.SetNibble(p.Wildcards[d], v), d+1)
			if stopped || n >= budget {
				return
			}
		}
	}
	rec(p.Base, 0)
	return n
}

// update counts the seeds the view adds (every seed on a reset) and
// re-mines the patterns.
func (g *Generator) update(v *tga.SeedView) {
	added, reset := g.kept.Added(v)
	if reset {
		g.counts = [32][16]int64{}
	} else if len(added) == 0 {
		return
	}
	tga.NibbleCounts(added, &g.counts)
	g.patterns = minePatterns(v.Walk, tga.EntropyFromCounts(&g.counts, v.Len()), g.cfg)
}

// EmitView implements tga.ViewStreamer: grow the model by the view's new
// seeds, then enumerate the mined patterns in support order,
// yielding novel non-seed addresses as the expansions walk them. The
// budget counts enumerated (pre-dedup) addresses.
func (g *Generator) EmitView(v *tga.SeedView, budget int, yield func(ip6.Addr) bool) {
	if v.Len() == 0 || budget <= 0 {
		return
	}
	g.update(v)
	seen := ip6.NewSet(0)
	stopped := false
	for _, p := range g.patterns {
		if budget <= 0 || stopped {
			break
		}
		budget -= EnumerateEach(p, budget, func(a ip6.Addr) bool {
			if !v.Has(a) && seen.Add(a) {
				if !yield(a) {
					stopped = true
					return false
				}
			}
			return true
		})
	}
}

var _ tga.ViewStreamer = (*Generator)(nil)
