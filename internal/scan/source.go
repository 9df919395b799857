package scan

import (
	"fmt"
	"io"

	"hitlist6/internal/ip6"
)

// The pull-based producer side of the streaming engine. Every target
// producer in the pipeline — TGA generators, input feeds, the service's
// sharded scan-set buffers, the APD slot queue — implements TargetSource,
// and Scanner.StreamFrom pulls, shards and probes the stream without ever
// materializing the full target set. The optional refinements below let
// producers that already know more (contiguous storage, canonical
// pre-sharding, a fixed shard) skip work the engine would otherwise redo.

// TargetSource is a pull-based stream of scan targets.
//
// Next fills buf with up to len(buf) addresses and returns how many it
// wrote. Exhaustion is signaled with io.EOF, which may accompany the
// final addresses (n > 0); after io.EOF further calls return (0, io.EOF).
// Next must never return n == 0 with a nil error. Implementations must be
// deterministic: the emitted address sequence depends only on the
// source's construction, never on pull timing or buffer sizes — that is
// what makes every consumer of the streaming engine bit-reproducible.
//
// Sources are pulled from one goroutine at a time and need no internal
// locking. A source that holds resources (a file, a generator goroutine)
// may implement io.Closer; StreamFrom closes such sources when the
// stream ends, including on error or cancellation.
type TargetSource interface {
	Next(buf []ip6.Addr) (n int, err error)
}

// SpanSource is an optional TargetSource fast path for sources backed by
// contiguous memory: Span returns the next run of up to max addresses as
// a subslice of the source's own storage (valid until the next call),
// skipping the copy into the caller's buffer.
type SpanSource interface {
	TargetSource
	Span(max int) ([]ip6.Addr, error)
}

// ShardedSource is an optional TargetSource refinement for producers
// whose targets are already partitioned by ip6.ShardOf. The engine then
// skips the routing pass entirely: each probe worker pulls its shard's
// sub-source directly, which is the zero-materialization path the
// service's per-shard scan-set buffers use.
type ShardedSource interface {
	TargetSource
	// ShardSource returns a source yielding exactly the addresses of
	// canonical shard sh, or nil when the shard is empty. The engine
	// checks every address: one with ip6.ShardOf != sh fails the stream.
	// Each shard source is pulled by at most one goroutine at a time,
	// independently of the others.
	ShardSource(sh int) TargetSource
}

// ShardSizer is an optional refinement: ShardLen reports how many
// addresses shard sh will yield (so the engine can size batch buffers
// exactly), or -1 when unknown.
type ShardSizer interface {
	ShardLen(sh int) int
}

// SliceSource wraps a materialized target slice as a TargetSource. The
// returned source also implements ShardedSource (partitioning lazily,
// preserving input order within each shard), SpanSource and ShardSizer,
// so slice-fed streams keep the exact plan-based fast path of the
// engine. The slice must not be mutated while the source is in use.
func SliceSource(addrs []ip6.Addr) TargetSource {
	return &sliceSource{rest: addrs, all: addrs}
}

type sliceSource struct {
	rest  []ip6.Addr
	all   []ip6.Addr
	plans [][]ip6.Addr
}

func (s *sliceSource) Next(buf []ip6.Addr) (int, error) {
	n := copy(buf, s.rest)
	s.rest = s.rest[n:]
	if len(s.rest) == 0 {
		return n, io.EOF
	}
	return n, nil
}

func (s *sliceSource) Span(max int) ([]ip6.Addr, error) {
	if max > len(s.rest) {
		max = len(s.rest)
	}
	seg := s.rest[:max]
	s.rest = s.rest[max:]
	if len(s.rest) == 0 {
		return seg, io.EOF
	}
	return seg, nil
}

func (s *sliceSource) built() [][]ip6.Addr {
	if s.plans == nil {
		s.plans = buildPlans(s.all)
	}
	return s.plans
}

func (s *sliceSource) ShardSource(sh int) TargetSource {
	plan := s.built()[sh]
	if len(plan) == 0 {
		return nil
	}
	return &spanSlice{rest: plan}
}

func (s *sliceSource) ShardLen(sh int) int { return len(s.built()[sh]) }

// spanSlice is the per-shard cursor of slice-backed sharded sources.
type spanSlice struct{ rest []ip6.Addr }

func (s *spanSlice) Next(buf []ip6.Addr) (int, error) {
	n := copy(buf, s.rest)
	s.rest = s.rest[n:]
	if len(s.rest) == 0 {
		return n, io.EOF
	}
	return n, nil
}

func (s *spanSlice) Span(max int) ([]ip6.Addr, error) {
	if max > len(s.rest) {
		max = len(s.rest)
	}
	seg := s.rest[:max]
	s.rest = s.rest[max:]
	if len(s.rest) == 0 {
		return seg, io.EOF
	}
	return seg, nil
}

// ShardSlices wraps caller-partitioned per-shard target slices — the
// layout the service's scan-set buffers already hold — as a
// ShardedSource. shards[i] holds shard i's targets (an address with
// ip6.ShardOf != i fails the stream) and len(shards) must be
// ip6.AddrShards.
// Generic Next pulls walk shards in canonical order.
func ShardSlices(shards [][]ip6.Addr) ShardedSource {
	if len(shards) != ip6.AddrShards {
		panic(fmt.Sprintf("scan: ShardSlices wants %d shards, got %d", ip6.AddrShards, len(shards)))
	}
	return &shardSlices{shards: shards}
}

type shardSlices struct {
	shards [][]ip6.Addr
	sh     int
	off    int
}

func (s *shardSlices) Next(buf []ip6.Addr) (int, error) {
	n := 0
	for n < len(buf) {
		for s.sh < len(s.shards) && s.off >= len(s.shards[s.sh]) {
			s.sh++
			s.off = 0
		}
		if s.sh >= len(s.shards) {
			return n, io.EOF
		}
		c := copy(buf[n:], s.shards[s.sh][s.off:])
		n += c
		s.off += c
	}
	// Report EOF eagerly when the cursor landed exactly on the end.
	sh, off := s.sh, s.off
	for sh < len(s.shards) && off >= len(s.shards[sh]) {
		sh++
		off = 0
	}
	if sh >= len(s.shards) {
		return n, io.EOF
	}
	return n, nil
}

func (s *shardSlices) ShardSource(sh int) TargetSource {
	if len(s.shards[sh]) == 0 {
		return nil
	}
	return &spanSlice{rest: s.shards[sh]}
}

func (s *shardSlices) ShardLen(sh int) int { return len(s.shards[sh]) }

// Chain concatenates sources: all of srcs[0]'s targets, then srcs[1]'s,
// and so on. Closing the chain closes every closable constituent.
func Chain(srcs ...TargetSource) TargetSource {
	return &chainSource{srcs: srcs}
}

type chainSource struct {
	srcs []TargetSource
	cur  int
}

func (c *chainSource) Next(buf []ip6.Addr) (int, error) {
	for c.cur < len(c.srcs) {
		n, err := c.srcs[c.cur].Next(buf)
		if err == io.EOF {
			c.cur++
			if n > 0 {
				if c.cur >= len(c.srcs) {
					return n, io.EOF
				}
				return n, nil
			}
			continue
		}
		if err != nil {
			return n, err
		}
		if n > 0 {
			return n, nil
		}
		return 0, fmt.Errorf("scan: chained source made no progress")
	}
	return 0, io.EOF
}

func (c *chainSource) Close() error {
	var first error
	for _, s := range c.srcs {
		if cl, ok := s.(io.Closer); ok {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Filter wraps src, keeping only the addresses keep reports true for.
// Closing the filter closes src if closable.
func Filter(src TargetSource, keep func(ip6.Addr) bool) TargetSource {
	return &filterSource{src: src, keep: keep}
}

type filterSource struct {
	src  TargetSource
	keep func(ip6.Addr) bool
	eof  bool
}

func (f *filterSource) Next(buf []ip6.Addr) (int, error) {
	if f.eof {
		return 0, io.EOF
	}
	for {
		n, err := f.src.Next(buf)
		kept := 0
		for _, a := range buf[:n] {
			if f.keep(a) {
				buf[kept] = a
				kept++
			}
		}
		if err == io.EOF {
			f.eof = true
			return kept, io.EOF
		}
		if err != nil {
			return kept, err
		}
		if kept > 0 {
			return kept, nil
		}
		if n == 0 {
			return 0, fmt.Errorf("scan: filtered source made no progress")
		}
		// Everything in this pull was filtered out; pull again rather
		// than violate the no-progress-without-error contract.
	}
}

func (f *filterSource) Close() error {
	if cl, ok := f.src.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// AddSet is the accumulator DedupWith tracks emitted addresses in: Add
// reports whether the address was newly inserted. ip6.Set satisfies it
// resident; ip6.SpillSet satisfies it with bounded memory, which is what
// keeps hitlist-scale candidate streams deduplicable without holding the
// emitted set in RAM.
type AddSet interface {
	Add(a ip6.Addr) bool
}

// Dedup wraps src, dropping every address skip reports true for and any
// address already emitted earlier in the stream — the streaming
// counterpart of tga.DedupAgainstSeeds (with skip as seed-set
// membership). Closing the dedup source closes src if closable. The
// emitted-address set is resident; use DedupWith to supply a spillable
// one.
func Dedup(src TargetSource, skip func(ip6.Addr) bool) TargetSource {
	return DedupWith(src, skip, ip6.NewSet(0))
}

// DedupWith is Dedup with a caller-provided emitted-address accumulator,
// so larger-than-memory streams can dedup against a disk-backed set. The
// caller owns seen (and closes it if closable); the source only Adds.
func DedupWith(src TargetSource, skip func(ip6.Addr) bool, seen AddSet) TargetSource {
	return Filter(src, func(a ip6.Addr) bool {
		if skip != nil && skip(a) {
			return false
		}
		return seen.Add(a)
	})
}

// Collect drains a source into a slice — the materializing compat path
// for consumers that genuinely need the whole set (ordered output,
// analyses). It closes src if closable.
func Collect(src TargetSource) ([]ip6.Addr, error) {
	defer closeSource(src)
	var out []ip6.Addr
	buf := make([]ip6.Addr, DefaultSourceChunk)
	for {
		n, err := src.Next(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if n == 0 {
			return out, fmt.Errorf("scan: source made no progress")
		}
	}
}

func closeSource(src TargetSource) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}
