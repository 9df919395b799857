// Package sixveclm reimplements the observable behaviour of 6VecLM (Cui et
// al., ECML-PKDD 2021): language modeling of IPv6 addresses in "word"
// space, where a word is a nibble value fused with its position, and new
// addresses are generated by sequential next-word prediction with
// temperature sampling.
//
// Substitution note (documented in DESIGN.md): the original embeds words
// with an IPv62Vec skip-gram and predicts with a transformer. Stdlib-only,
// we keep the exact word vocabulary (value@position) and the sequential
// generation loop, but the predictor is an order-2 Markov model over the
// IID with additive smoothing. What the hitlist paper measures survives the
// substitution: a small candidate volume and ~1 % hit rate, because
// position-fused words make the model conservative — it mostly interpolates
// between seen suffixes.
package sixveclm

import (
	"math"
	"slices"

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

// iidContexts is the number of Markov contexts generation reads: each IID
// position (16..31) conditioned on the two preceding nibbles.
const iidContexts = 16 * 16 * 16

// powMemo bounds the per-generator table of tempered weights: counts
// below it are raised to 1/Temperature once, larger ones every time.
const powMemo = 1024

// Generator is the 6VecLM TGA: integer transition counts for the IID
// contexts and the sorted distinct /64s of the seeds, both grown by the
// seeds each view adds, plus a per-context sampler built on first use
// and dropped when new seeds change that context's counts. pow memoizes
// the tempered weight of each small count (0 = not yet computed).
type Generator struct {
	cfg      Config
	kept     tga.KeptSpans
	counts   [iidContexts][16]int64
	samplers [iidContexts]*rng.Weighted
	prefixes []ip6.Prefix
	pow      [powMemo]float64
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

// context indexes the Markov context of IID position pos (16..31) in a
// nibble sequence: the position and its Order preceding nibbles. Only
// the IID is ever predicted, so only these contexts are counted.
func (g *Generator) context(n *[32]byte, pos int) int {
	prev2 := 0
	if g.cfg.Order >= 2 {
		prev2 = int(n[pos-2])
	}
	return (pos-16)<<8 | prev2<<4 | int(n[pos-1])
}

// sampler returns context c's next-nibble distribution: additive
// smoothing, then temperature, over the integer counts.
func (g *Generator) sampler(c int) *rng.Weighted {
	if g.samplers[c] == nil {
		var w [16]float64
		for v, cnt := range g.counts[c] {
			w[v] = g.weight(cnt)
		}
		g.samplers[c] = rng.NewWeighted(w[:])
	}
	return g.samplers[c]
}

// weight is the tempered, smoothed weight of a transition count.
func (g *Generator) weight(cnt int64) float64 {
	if cnt < powMemo && g.pow[cnt] != 0 {
		return g.pow[cnt]
	}
	w := math.Pow(0.02+float64(cnt), 1.0/g.cfg.Temperature)
	if cnt < powMemo {
		g.pow[cnt] = w
	}
	return w
}

// update grows the model by the seeds the view adds (or rebuilds it from
// every seed on a reset): their IID transitions add to the counts, each
// touched context's sampler is dropped, and their /64s merge into the
// sorted prefix pool.
func (g *Generator) update(v *tga.SeedView) {
	added, reset := g.kept.Added(v)
	if reset {
		g.counts = [iidContexts][16]int64{}
		g.samplers = [iidContexts]*rng.Weighted{}
		g.prefixes = nil
	} else if len(added) == 0 {
		return
	}
	for _, a := range added {
		n := a.Nibbles()
		for pos := 16; pos < 32; pos++ {
			c := g.context(&n, pos)
			g.counts[c][n[pos]]++
			g.samplers[c] = nil
		}
	}
	ip6.SortAddrs(added)
	g.prefixes = mergePrefixes(g.prefixes, added)
}

// mergePrefixes returns the sorted distinct /64 pool extended by the
// /64s of the sorted new seeds; pool itself is returned when they add
// none.
func mergePrefixes(pool []ip6.Prefix, sorted []ip6.Addr) []ip6.Prefix {
	var out []ip6.Prefix
	rest := pool
	for i, a := range sorted {
		p := ip6.Slash64(a)
		if i > 0 && ip6.Slash64(sorted[i-1]) == p {
			continue
		}
		j, found := slices.BinarySearchFunc(rest, p, ip6.ComparePrefix)
		if found {
			continue
		}
		out, rest = append(append(out, rest[:j]...), p), rest[j:]
	}
	if out == nil {
		return pool
	}
	return append(out, rest...)
}

// EmitView implements tga.ViewStreamer: grow the model by the view's new
// seeds, then autocomplete addresses word by word, yielding each novel
// candidate as it is sampled. Generation is seeded from observed /64
// network halves (the paper's generation keeps the network identifier
// and predicts the IID), so candidates land in plausible networks.
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
			base[pos] = byte(g.sampler(g.context(&base, pos)).Sample(r))
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
