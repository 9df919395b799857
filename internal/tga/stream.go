package tga

// Streaming target generation: every concrete generator is a
// ViewStreamer — a model fit to the sharded seed view and sampled
// incrementally — and NewViewSource adapts that push stream into the
// scan engine's pull-based TargetSource, so "generate → probe → feed
// back" runs end to end without ever materializing a candidate list.
// Generation starts when the source is made, not on its first pull: a
// round that chains several generators' sources (scan.Chain) has every
// model updating and emitting side by side while the first source's
// candidates are pulled, and the chain still delivers each source's
// stream whole, in order.

import (
	"io"
	"sync"

	"hitlist6/internal/ip6"
	"hitlist6/internal/scan"
)

// ViewStreamer is the one TGA contract. Name is the analysis label
// ("6Tree", "6Graph", ...). EmitView yields up to budget candidates
// derived from the view's seeds, stopping early when yield returns
// false; it is deterministic in the seed set and never yields seed
// addresses or duplicates. The generator keeps its statistical model
// across calls and grows it by the seeds the view adds to the previous
// one (KeptSpans) — so a round's model update costs the new seeds, not
// the cumulative set — and a view of any other seed set yields exactly
// what a fresh generator would. Callers holding a flat seed slice pass
// ip6.SortedOf(seeds...).
type ViewStreamer interface {
	Name() string
	EmitView(view *SeedView, budget int, yield func(ip6.Addr) bool)
}

// sourceChunk is the hand-off granularity between the generator
// goroutine and pulls; a few hundred addresses amortize the channel
// synchronization without buffering meaningful memory.
const sourceChunk = 256

// Source streams a generator's candidates as a pull-based
// scan.TargetSource. The generator runs in its own goroutine, started
// when the source is made and bounded by a small chunk channel, so at
// most a few chunks exist at once no matter how large the budget is. The
// stream is deterministic: pulls see exactly EmitView's output order.
//
// The goroutine owns the generator until the stream ends, so a caller
// must either drain the source to io.EOF or Close it before it hands the
// same generator to another source; scan.Scanner.StreamFrom closes its
// source on every path.
type Source struct {
	ch       chan []ip6.Addr
	stop     chan struct{}
	stopOnce sync.Once
	cur      []ip6.Addr
	done     bool
	emitted  int
}

// NewViewSource returns a pull source over g's candidate stream for the
// view and budget, and starts the generator: its model grows by the
// view's new seeds and its first chunks fill while the caller does
// other work.
func NewViewSource(g ViewStreamer, view *SeedView, budget int) *Source {
	s := &Source{ch: make(chan []ip6.Addr, 4), stop: make(chan struct{})}
	go func() {
		defer close(s.ch)
		buf := make([]ip6.Addr, 0, sourceChunk)
		flush := func() bool {
			if len(buf) == 0 {
				return true
			}
			select {
			case s.ch <- buf:
				buf = make([]ip6.Addr, 0, sourceChunk)
				return true
			case <-s.stop:
				return false
			}
		}
		g.EmitView(view, budget, func(a ip6.Addr) bool {
			buf = append(buf, a)
			if len(buf) == sourceChunk {
				return flush()
			}
			select {
			case <-s.stop:
				return false
			default:
				return true
			}
		})
		flush()
	}()
	return s
}

// Next implements scan.TargetSource.
func (s *Source) Next(buf []ip6.Addr) (int, error) {
	for len(s.cur) == 0 {
		if s.done {
			return 0, io.EOF
		}
		chunk, ok := <-s.ch
		if !ok {
			s.done = true
			return 0, io.EOF
		}
		s.cur = chunk
	}
	n := copy(buf, s.cur)
	s.cur = s.cur[n:]
	s.emitted += n
	return n, nil
}

// Close stops the generator and returns once its goroutine has: a model
// update in progress runs to its end first, so after Close the generator
// is free for the next source. Safe to call more than once, and after
// exhaustion; pulls after Close return what was already pulled into the
// current chunk and then io.EOF.
func (s *Source) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	for range s.ch { // drop unpulled chunks until the goroutine ends
	}
	return nil
}

// Emitted reports how many candidates have been pulled so far. Read it
// after the stream ends.
func (s *Source) Emitted() int { return s.emitted }

// CandidateFeed adapts a ViewStreamer into the service's per-scan
// candidate feed (core.Config.TGAFeed): each scan it streams up to
// Budget candidates generated from the service's cumulative responsive
// seeds, which the service probes and feeds back as input — the paper's
// Section 6 TGA workload as a closed loop. The service dedups the
// stream on the fly against every address ever seen as input; under a
// memory budget (core.Config.MemoryBudget) both that cumulative set and
// the round's emitted-candidate set are disk-backed, so the candidate
// stream is memory-bounded no matter how large Budget grows. Seeds
// arrive as a SeedView — per-shard frozen spans pointer-shared across
// rounds — so neither the service nor the generator ever materializes
// the cumulative seed slice again.
type CandidateFeed struct {
	Gen    ViewStreamer
	Budget int
}

// Name labels the feed in input accounting.
func (f CandidateFeed) Name() string { return f.Gen.Name() }

// Candidates returns the scan-day candidate stream. The day parameter is
// part of the feed contract (feeds may vary generation by day); the
// bundled generators are day-independent.
func (f CandidateFeed) Candidates(day int, seeds *SeedView) scan.TargetSource {
	return NewViewSource(f.Gen, seeds, f.Budget)
}
