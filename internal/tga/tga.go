// Package tga defines the target generation algorithm (TGA) contract and
// shared seed utilities used by the concrete generators (6Tree, 6Graph,
// 6GAN, 6VecLM and the paper's own distance clustering).
//
// All generators consume a seed set of known-responsive addresses and emit
// candidate addresses, the paper's Section 6 workload. Each is one
// ViewStreamer: a model fit to a SeedView (incrementally, from the seeds
// each view adds) and sampled by EmitView. The reimplementations follow the published
// algorithms' structure; where the originals train neural models (6GAN's
// GAN+RL, 6VecLM's transformer) we substitute deterministic statistical
// models over nibble sequences that preserve the generators' observable
// behaviour: their candidate volume, their bias towards dense regions, and
// their (low) hit rates.
package tga

import (
	"math"

	"hitlist6/internal/ip6"
)

// DedupAgainstSeeds removes seed addresses and duplicates from candidates,
// preserving order.
func DedupAgainstSeeds(candidates, seeds []ip6.Addr) []ip6.Addr {
	seedSet := ip6.NewSet(len(seeds))
	seedSet.AddSlice(seeds)
	seen := ip6.NewSet(len(candidates))
	out := candidates[:0]
	for _, c := range candidates {
		if seedSet.Has(c) || !seen.Add(c) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// NibbleCounts accumulates per-position nibble value counts over seeds
// into counts — the statistic an incremental model grows by the seeds
// each view adds.
func NibbleCounts(seeds []ip6.Addr, counts *[32][16]int64) {
	for _, a := range seeds {
		n := a.Nibbles()
		for i, v := range n {
			counts[i][v]++
		}
	}
}

// EntropyFromCounts computes the empirical Shannon entropy (bits) per
// nibble position from accumulated counts over total seeds. Counts are
// integers, so counts grown round by round yield bit-identical entropies
// to a from-scratch pass.
func EntropyFromCounts(counts *[32][16]int64, total int) [32]float64 {
	var out [32]float64
	if total == 0 {
		return out
	}
	t := float64(total)
	for i := range counts {
		h := 0.0
		for _, c := range counts[i] {
			if c == 0 {
				continue
			}
			p := float64(c) / t
			h -= p * math.Log2(p)
		}
		out[i] = h
	}
	return out
}

// NibbleValueSets returns, per position, the sorted distinct nibble values
// observed in the seed set.
func NibbleValueSets(seeds []ip6.Addr) [32][]byte {
	var seen [32][16]bool
	for _, a := range seeds {
		n := a.Nibbles()
		for i, v := range n {
			seen[i][v] = true
		}
	}
	var out [32][]byte
	for i := range seen {
		for v := byte(0); v < 16; v++ {
			if seen[i][v] {
				out[i] = append(out[i], v)
			}
		}
	}
	return out
}

// Slash64Group is one /64's seed addresses, sorted ascending. Distance
// clustering and the dense-region analyses operate per /64.
type Slash64Group struct {
	Prefix ip6.Prefix
	Addrs  []ip6.Addr
}

// GroupSortedBySlash64 buckets addresses already sorted ascending by
// their /64 — one linear scan, returning groups sorted by prefix with
// every group's Addrs a subslice of the input (no copying).
func GroupSortedBySlash64(sorted []ip6.Addr) []Slash64Group {
	var out []Slash64Group
	start := 0
	for i := 1; i <= len(sorted); i++ {
		if i < len(sorted) && ip6.Slash64(sorted[i]) == ip6.Slash64(sorted[start]) {
			continue
		}
		out = append(out, Slash64Group{
			Prefix: ip6.Slash64(sorted[start]),
			Addrs:  sorted[start:i:i],
		})
		start = i
	}
	return out
}
