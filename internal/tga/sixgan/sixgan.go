// Package sixgan reimplements the observable behaviour of 6GAN (Cui et
// al., INFOCOM 2021): multi-pattern target generation with an adversarial
// generator per seed class.
//
// Substitution note (documented in DESIGN.md): the original trains one GAN
// per address-pattern class with reinforcement-learning feedback. Offline
// and stdlib-only, we keep the published pipeline shape — seed
// classification into pattern classes, a per-class generative sequence
// model, temperature sampling — but the per-class model is a deterministic
// per-position nibble distribution (a categorical "generator") instead of
// a trained network. This preserves what the hitlist paper measures about
// 6GAN: a modest candidate volume, heavy concentration on the dominant
// class, and a very low hit rate, since independent per-position sampling
// rarely recreates complete assigned addresses.
package sixgan

import (
	"math"

	"hitlist6/internal/ip6"
	"hitlist6/internal/rng"
	"hitlist6/internal/tga"
)

// Class is a seed addressing pattern class, following the categories 6GAN
// seeds its generators with.
type Class uint8

// Pattern classes.
const (
	ClassLowByte Class = iota // ::1-style low IIDs
	ClassEUI64                // ff:fe MAC-derived IIDs
	ClassWordy                // hex words / structured patterns
	ClassRandom               // privacy/random IIDs
	NumClasses
)

// Classify assigns a seed to its pattern class.
func Classify(a ip6.Addr) Class {
	if a.IsEUI64() {
		return ClassEUI64
	}
	if a.LowByteAddr() {
		return ClassLowByte
	}
	// "Wordy": few distinct nibble values in the IID suggest structure
	// (dead:beef uses five, repeated digits fewer); random IIDs draw
	// ~10 distinct values out of 16.
	var seen [16]bool
	distinct := 0
	for i := 16; i < 32; i++ {
		v := a.Nibble(i)
		if !seen[v] {
			seen[v] = true
			distinct++
		}
	}
	if distinct <= 5 {
		return ClassWordy
	}
	return ClassRandom
}

// Config tunes the generator.
type Config struct {
	// Seed drives sampling determinism.
	Seed uint64
	// Temperature flattens (>1) or sharpens (<1) the per-position
	// distributions.
	Temperature float64
}

// DefaultConfig mirrors published defaults.
func DefaultConfig() Config { return Config{Seed: 6, Temperature: 1.0} }

// Generator is the 6GAN TGA: per-class nibble counts grown by the seeds
// each view adds; the per-class sampling distributions rebuild from them
// when the view added any.
type Generator struct {
	cfg    Config
	kept   tga.KeptSpans
	counts [NumClasses]classCounts
	models []*classModel
	total  int
}

// New returns a 6GAN generator.
func New(cfg Config) *Generator {
	if cfg.Temperature <= 0 {
		cfg.Temperature = 1.0
	}
	return &Generator{cfg: cfg}
}

// Name implements tga.ViewStreamer.
func (g *Generator) Name() string { return "6GAN" }

// classModel is the per-class categorical sequence model.
type classModel struct {
	class   Class
	support int
	// dist[i] is the smoothed nibble distribution at position i.
	dist [32]*rng.Weighted
}

// classCounts are per-class nibble statistics: the sufficient statistic
// of a classModel, held as integers so counts grown round by round
// reproduce a flat-slice count exactly.
type classCounts struct {
	support int
	counts  [32][16]int64
}

// modelFromCounts builds the smoothed sampling distributions from
// accumulated counts.
func modelFromCounts(class Class, c *classCounts, temperature float64) *classModel {
	m := &classModel{class: class, support: c.support}
	for i := range c.counts {
		w := make([]float64, 16)
		for v := 0; v < 16; v++ {
			// Additive smoothing then temperature.
			w[v] = math.Pow(float64(c.counts[i][v])+0.05, 1.0/temperature)
		}
		m.dist[i] = rng.NewWeighted(w)
	}
	return m
}

// update classifies and counts the seeds the view adds (every seed on a
// reset) and rebuilds the class models.
func (g *Generator) update(v *tga.SeedView) {
	added, reset := g.kept.Added(v)
	if reset {
		g.counts = [NumClasses]classCounts{}
	} else if len(added) == 0 {
		return
	}
	for _, a := range added {
		c := &g.counts[Classify(a)]
		c.support++
		nib := a.Nibbles()
		for i, val := range nib {
			c.counts[i][val]++
		}
	}
	g.models = g.models[:0]
	for cl := Class(0); cl < NumClasses; cl++ {
		if g.counts[cl].support >= 8 {
			g.models = append(g.models, modelFromCounts(cl, &g.counts[cl], g.cfg.Temperature))
		}
	}
	if len(g.models) == 0 {
		// No class is well-supported: one model over every seed,
		// matching a flat build over the whole set.
		var all classCounts
		for cl := range g.counts {
			all.support += g.counts[cl].support
			for i := range g.counts[cl].counts {
				for val, cnt := range g.counts[cl].counts[i] {
					all.counts[i][val] += cnt
				}
			}
		}
		g.models = append(g.models, modelFromCounts(ClassRandom, &all, g.cfg.Temperature))
	}
	g.total = 0
	for _, cm := range g.models {
		g.total += cm.support
	}
}

// EmitView implements tga.ViewStreamer: grow the model by the view's new
// seeds, then sample candidates proportionally to class
// support and yield the novel non-seed ones as they are drawn. The
// budget counts raw global-unicast samples (duplicates included).
func (g *Generator) EmitView(v *tga.SeedView, budget int, yield func(ip6.Addr) bool) {
	if v.Len() == 0 || budget <= 0 {
		return
	}
	g.update(v)
	seen := ip6.NewSet(0)
	raw := 0
	r := rng.NewStream(g.cfg.Seed, "6gan-sample")
	for _, cm := range g.models {
		share := budget * cm.support / g.total
		if share == 0 {
			share = 1
		}
		for i := 0; i < share && raw < budget; i++ {
			var nib [32]byte
			for pos := 0; pos < 32; pos++ {
				nib[pos] = byte(cm.dist[pos].Sample(r))
			}
			a := ip6.AddrFromNibbles(nib)
			if a.IsGlobalUnicast() {
				raw++
				if !v.Has(a) && seen.Add(a) {
					if !yield(a) {
						return
					}
				}
			}
		}
	}
}

var _ tga.ViewStreamer = (*Generator)(nil)
