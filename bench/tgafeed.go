package main

import (
	"io"
	"time"

	"hitlist6/internal/ip6"
	"hitlist6/internal/scan"
	"hitlist6/internal/tga"
	"hitlist6/internal/tga/dc"
	"hitlist6/internal/tga/sixgan"
	"hitlist6/internal/tga/sixgraph"
	"hitlist6/internal/tga/sixtree"
	"hitlist6/internal/tga/sixveclm"
)

// tgaBudget is each generator's candidate budget per round.
const tgaBudget = 1000

// newGenerators returns fresh instances of the five bundled generators
// at their default configurations, in tgaGens order.
func newGenerators() []tga.ViewStreamer {
	return []tga.ViewStreamer{
		dc.New(dc.DefaultConfig()),
		sixtree.New(sixtree.DefaultConfig()),
		sixgraph.New(sixgraph.DefaultConfig()),
		sixgan.New(sixgan.DefaultConfig()),
		sixveclm.New(sixveclm.DefaultConfig()),
	}
}

// chainFeed is the harness's core.CandidateFeed: each round it chains
// the five generators' streams, tgaBudget candidates each, over the
// service's seed view. The generators keep their incremental models
// across rounds, as in a live loop. Untraced it keeps one timestamp per
// round (the Candidates call, from which tga_round_p50_ms runs to
// RunScan's return); traced it also wraps every generator's source so
// each Next is a span.
type chainFeed struct {
	gens []tga.ViewStreamer

	roundStart time.Time

	tr     *tracer
	parent *int // the current scan's span
}

func newChainFeed(tr *tracer, parent *int) *chainFeed {
	return &chainFeed{gens: newGenerators(), tr: tr, parent: parent}
}

func (f *chainFeed) Name() string { return "tga-chain" }

func (f *chainFeed) Candidates(day int, seeds *tga.SeedView) scan.TargetSource {
	f.roundStart = time.Now()
	parent := -1
	if f.parent != nil {
		parent = *f.parent
	}
	id := f.tr.begin("tga.candidates", "", parent)
	srcs := make([]scan.TargetSource, len(f.gens))
	for i, g := range f.gens {
		srcs[i] = tga.NewViewSource(g, seeds, tgaBudget)
		if f.tr != nil {
			srcs[i] = &tracedSource{src: srcs[i], tr: f.tr, gen: tgaGens[i], parent: parent}
		}
	}
	f.tr.end(id, int64(seeds.Len()))
	return scan.Chain(srcs...)
}

// tracedSource records one tga.pull span per Next on a generator's
// source. The pull blocks on the generator's goroutine, so the spans of
// one generator add up to its model update plus its emission.
type tracedSource struct {
	src    scan.TargetSource
	tr     *tracer
	gen    string
	parent int
}

func (s *tracedSource) Next(buf []ip6.Addr) (int, error) {
	id := s.tr.begin("tga.pull", s.gen, s.parent)
	n, err := s.src.Next(buf)
	s.tr.end(id, int64(n))
	return n, err
}

func (s *tracedSource) Close() error {
	if c, ok := s.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
