// Package dc implements the paper's own target generation approach,
// distance clustering (Section 6.1): "extending more densely clustered
// address regions that show high entropy in the last nibble(s)".
//
// Clusters are runs of at least MinClusterSize addresses inside one /64
// where consecutive addresses are at most MaxGap apart. Given the size of
// the IPv6 space, even ten addresses within distance 64 are very unlikely
// to be random, so the missing addresses inside a cluster's span are
// generated as candidates. The paper measures ~12 % responsiveness for
// these — the best hit rate among the evaluated generators.
package dc

import (
	"slices"

	"hitlist6/internal/ip6"
	"hitlist6/internal/tga"
)

// Config are the clustering parameters; the paper uses clusters of at
// least 10 addresses with a distance of at most 64.
type Config struct {
	MinClusterSize int
	MaxGap         uint64
	// MaxFill caps generated addresses per cluster, guarding against
	// degenerate spans.
	MaxFill int
}

// DefaultConfig matches the paper's parameters.
func DefaultConfig() Config { return Config{MinClusterSize: 10, MaxGap: 64, MaxFill: 4096} }

// Generator is the distance-clustering TGA: one sorted list of /64
// groups, grown each round by merging in the seeds the view adds, and
// the clusters found in it.
type Generator struct {
	cfg      Config
	kept     tga.KeptSpans
	groups   []tga.Slash64Group
	clusters [][]ip6.Addr
}

// New returns a distance-clustering generator.
func New(cfg Config) *Generator {
	if cfg.MinClusterSize <= 0 {
		cfg.MinClusterSize = 10
	}
	if cfg.MaxGap == 0 {
		cfg.MaxGap = 64
	}
	if cfg.MaxFill <= 0 {
		cfg.MaxFill = 4096
	}
	return &Generator{cfg: cfg}
}

// Name implements tga.ViewStreamer.
func (g *Generator) Name() string { return "DC" }

// clustersOf locates dense runs in already-grouped seeds. A cluster is
// its maximal seed run — a subslice of its /64 group, sorted ascending —
// so its span is [run[0], run[len(run)-1]] and emission can merge-walk
// the span against its seeds instead of probing a resident copy of the
// whole set.
func clustersOf(groups []tga.Slash64Group, cfg Config) [][]ip6.Addr {
	var out [][]ip6.Addr
	for _, g := range groups {
		addrs := g.Addrs
		start := 0
		for i := 1; i <= len(addrs); i++ {
			if i < len(addrs) && addrs[i].Lo()-addrs[i-1].Lo() <= cfg.MaxGap {
				continue
			}
			if i-start >= cfg.MinClusterSize {
				out = append(out, addrs[start:i])
			}
			start = i
		}
	}
	return out
}

// update grows the model by the seeds the view adds (or rebuilds it from
// every seed on a reset): the sorted seeds, grouped by /64, merge into
// the kept groups, and the clusters are re-scanned.
func (g *Generator) update(v *tga.SeedView) {
	added, reset := g.kept.Added(v)
	if reset {
		g.groups = nil
	} else if len(added) == 0 {
		return
	}
	ip6.SortAddrs(added)
	g.groups = mergeGroups(g.groups, tga.GroupSortedBySlash64(added))
	g.clusters = clustersOf(g.groups, g.cfg)
}

// mergeGroups merges the new seeds' /64 groups into the kept ones, both
// sorted by prefix. A /64 in both gets a fresh member array: kept member
// arrays back the previous round's clusters and are never written.
func mergeGroups(kept, fresh []tga.Slash64Group) []tga.Slash64Group {
	if len(kept) == 0 {
		return fresh
	}
	out := make([]tga.Slash64Group, 0, len(kept)+len(fresh))
	for _, f := range fresh {
		i, found := slices.BinarySearchFunc(kept, f.Prefix, func(g tga.Slash64Group, p ip6.Prefix) int {
			return ip6.ComparePrefix(g.Prefix, p)
		})
		out, kept = append(out, kept[:i]...), kept[i:]
		if found {
			f.Addrs = mergeAddrs(kept[0].Addrs, f.Addrs)
			kept = kept[1:]
		}
		out = append(out, f)
	}
	return append(out, kept...)
}

// mergeAddrs merges two disjoint ascending address lists into a new one.
func mergeAddrs(a, b []ip6.Addr) []ip6.Addr {
	out := make([]ip6.Addr, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].Less(b[0]) {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// EmitView implements tga.ViewStreamer: grow the model by the view's new
// seeds, then walk the clusters in order and yield the missing
// addresses inside each span as the walk reaches them. Seed membership
// inside a span is a merge-walk against the cluster's own seed run (a
// span never leaves its /64, and runs are maximal, so no other seed can
// fall inside it); spans never overlap, so every yield is novel. The
// walk stops at the span's last seed without stepping past it, so a run
// ending at IID ffff:ffff:ffff:ffff never wraps to the bottom of its /64.
func (g *Generator) EmitView(v *tga.SeedView, budget int, yield func(ip6.Addr) bool) {
	if v.Len() == 0 || budget <= 0 {
		return
	}
	g.update(v)
	for _, run := range g.clusters {
		if budget <= 0 {
			return
		}
		max := g.cfg.MaxFill
		if max > budget {
			max = budget
		}
		count := 0
		hi, last := run[0].Hi(), run[len(run)-1].Lo()
		si := 0
		for lo := run[0].Lo(); count < max; lo++ {
			if run[si].Lo() == lo {
				si++
			} else {
				count++
				if !yield(ip6.AddrFromUint64s(hi, lo)) {
					return
				}
			}
			if lo == last {
				break
			}
		}
		budget -= count
	}
}

var _ tga.ViewStreamer = (*Generator)(nil)
