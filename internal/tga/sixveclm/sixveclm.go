// Package sixveclm reimplements the observable behaviour of 6VecLM (Cui et
// al., ECML-PKDD 2021): language modeling of IPv6 addresses in "word"
// space, where a word is a nibble value fused with its position, and new
// addresses are generated by sequential next-word prediction with
// temperature sampling.
//
// Substitution note (documented in DESIGN.md): the original embeds words
// with an IPv62Vec skip-gram and predicts with a transformer. Stdlib-only,
// we keep the exact word vocabulary (value@position) and the sequential
// generation loop, but the predictor is an order-2 Markov model with
// additive smoothing. What the hitlist paper measures survives the
// substitution: a small candidate volume and ~1 % hit rate, because
// position-fused words make the model conservative — it mostly interpolates
// between seen suffixes.
package sixveclm

import (
	"math"

	"hitlist6/internal/ip6"
	"hitlist6/internal/rng"
	"hitlist6/internal/tga"
)

// Config tunes the model.
type Config struct {
	Seed        uint64
	Temperature float64
	// Order is the Markov context length in nibbles.
	Order int
}

// DefaultConfig mirrors the published sampling setup.
func DefaultConfig() Config { return Config{Seed: 6, Temperature: 0.8, Order: 2} }

// Generator is the 6VecLM TGA: per-shard Markov transition counts and
// distinct-/64 lists cached against the seed view's frozen spans,
// re-trained only for dirty shards; the merged chain and prefix pool
// rebuild from the cached shards when anything changed.
type Generator struct {
	cfg           Config
	kept          tga.KeptSpans
	shardCounts   [ip6.AddrShards]map[ctxKey]*[16]int64
	shardPrefixes [ip6.AddrShards][]ip6.Prefix
	chain         *model
	prefixes      []ip6.Prefix
}

// New returns a 6VecLM generator.
func New(cfg Config) *Generator {
	if cfg.Temperature <= 0 {
		cfg.Temperature = 0.8
	}
	if cfg.Order <= 0 {
		cfg.Order = 2
	}
	return &Generator{cfg: cfg}
}

// Name implements tga.ViewStreamer.
func (g *Generator) Name() string { return "6VecLM" }

// ctxKey is a Markov context: position plus the preceding nibbles.
type ctxKey struct {
	pos  int
	prev [2]byte
}

// model is the order-2 position-aware Markov chain.
type model struct {
	counts map[ctxKey]*[16]float64
}

// countInto accumulates one seed's transition counts. Counts are held as
// integers per shard; float64 conversion at model-build time is exact
// below 2^53, so summed shard counts are independent of how the seeds
// were sharded.
func countInto(counts map[ctxKey]*[16]int64, a ip6.Addr, order int) {
	n := a.Nibbles()
	for pos := 0; pos < 32; pos++ {
		var prev [2]byte
		if pos >= 1 {
			prev[1] = n[pos-1] + 1 // +1 so "absent" (0) differs from nibble 0
		}
		if pos >= 2 && order >= 2 {
			prev[0] = n[pos-2] + 1
		}
		k := ctxKey{pos: pos, prev: prev}
		c := counts[k]
		if c == nil {
			c = &[16]int64{}
			counts[k] = c
		}
		c[n[pos]]++
	}
}

// modelFromCounts sums per-shard integer count maps into the sampling
// model. Addition is commutative, so any shard order yields the same
// model; the key set is exactly the contexts some seed produced.
func modelFromCounts(shardCounts []map[ctxKey]*[16]int64) *model {
	m := &model{counts: make(map[ctxKey]*[16]float64)}
	for _, sc := range shardCounts {
		for k, ic := range sc {
			c := m.counts[k]
			if c == nil {
				c = &[16]float64{}
				m.counts[k] = c
			}
			for v, cnt := range ic {
				c[v] += float64(cnt)
			}
		}
	}
	return m
}

// sample draws the next nibble for a context with temperature.
func (m *model) sample(r *rng.Stream, pos int, prev [2]byte, temperature float64) byte {
	c := m.counts[ctxKey{pos: pos, prev: prev}]
	if c == nil {
		// Back off to order-1.
		c = m.counts[ctxKey{pos: pos, prev: [2]byte{0, prev[1]}}]
	}
	var w [16]float64
	for v := 0; v < 16; v++ {
		base := 0.02
		if c != nil {
			base += c[v]
		}
		w[v] = math.Pow(base, 1.0/temperature)
	}
	sampler := rng.NewWeighted(w[:])
	return byte(sampler.Sample(r))
}

// update refreshes the model for the view, re-training only shards
// whose span changed (in parallel).
func (g *Generator) update(v *tga.SeedView) {
	if g.kept.Refresh(v, func(sh int, span []ip6.Addr) {
		counts := make(map[ctxKey]*[16]int64)
		var prefixes []ip6.Prefix
		for _, a := range span {
			countInto(counts, a, g.cfg.Order)
			// Spans are sorted by (hi, lo), so a shard's /64s arrive in
			// order; distinct prefixes are a linear scan.
			p := ip6.Slash64(a)
			if len(prefixes) == 0 || ip6.ComparePrefix(prefixes[len(prefixes)-1], p) != 0 {
				prefixes = append(prefixes, p)
			}
		}
		g.shardCounts[sh] = counts
		g.shardPrefixes[sh] = prefixes
	}) == 0 {
		return
	}
	g.chain = modelFromCounts(g.shardCounts[:])
	g.prefixes = mergePrefixLists(g.shardPrefixes[:])
}

// mergePrefixLists merges sorted distinct-prefix lists into one sorted
// distinct list — a /64's members scatter across shards, so the same
// prefix can head several lists at once.
func mergePrefixLists(lists [][]ip6.Prefix) []ip6.Prefix {
	idx := make([]int, len(lists))
	var out []ip6.Prefix
	for {
		best := -1
		var min ip6.Prefix
		for li, l := range lists {
			if idx[li] >= len(l) {
				continue
			}
			if p := l[idx[li]]; best < 0 || ip6.ComparePrefix(p, min) < 0 {
				best, min = li, p
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, min)
		for li, l := range lists {
			if idx[li] < len(l) && ip6.ComparePrefix(l[idx[li]], min) == 0 {
				idx[li]++
			}
		}
	}
}

// EmitView implements tga.ViewStreamer: refresh the model for shards
// the view dirtied, then autocomplete addresses word by word, yielding
// each novel candidate as it is sampled. Generation is seeded from
// observed /64 network halves (the paper's generation keeps the network
// identifier and predicts the IID), so candidates land in plausible
// networks.
func (g *Generator) EmitView(v *tga.SeedView, budget int, yield func(ip6.Addr) bool) {
	if v.Len() == 0 || budget <= 0 {
		return
	}
	g.update(v)
	r := rng.NewStream(g.cfg.Seed, "6veclm-sample")
	seen := ip6.NewSet(budget)
	emitted := 0
	// A sharp model can mostly regenerate its training data; the attempt
	// cap keeps generation finite when novel sequences are rare.
	for attempts := 0; emitted < budget && attempts < 64*budget; attempts++ {
		p := g.prefixes[r.Intn(len(g.prefixes))]
		base := p.Addr().Nibbles()
		// Predict nibbles 16..31 (the IID) conditioned on the network.
		for pos := 16; pos < 32; pos++ {
			var prev [2]byte
			prev[1] = base[pos-1] + 1
			if g.cfg.Order >= 2 {
				prev[0] = base[pos-2] + 1
			}
			base[pos] = g.chain.sample(r, pos, prev, g.cfg.Temperature)
		}
		a := ip6.AddrFromNibbles(base)
		if a.IsGlobalUnicast() && !v.Has(a) && seen.Add(a) {
			emitted++
			if !yield(a) {
				return
			}
		}
	}
}

var _ tga.ViewStreamer = (*Generator)(nil)
