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

// Generator is the distance-clustering TGA: per-shard /64 group lists
// cached against the seed view's frozen spans, merged into global groups
// and clusters only when some shard's span changed.
type Generator struct {
	cfg      Config
	kept     tga.KeptSpans
	perShard [ip6.AddrShards][]tga.Slash64Group
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

// update refreshes the model for the view, regrouping only shards whose
// span changed since the previous call (dirty shards rebuild in
// parallel; the cross-shard group merge and cluster scan are one linear
// pass).
func (g *Generator) update(v *tga.SeedView) {
	if g.kept.Refresh(v, func(sh int, span []ip6.Addr) {
		g.perShard[sh] = tga.GroupSortedBySlash64(span)
	}) == 0 {
		return
	}
	g.clusters = clustersOf(tga.MergeSlash64Groups(g.perShard[:]), g.cfg)
}

// EmitView implements tga.ViewStreamer: update the model for shards the
// view dirtied, then walk the clusters in order and yield the missing
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
