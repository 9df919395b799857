// Package sources defines the candidate-address feeds the hitlist service
// accumulates input from: DNS resolutions, traceroute-derived router
// addresses, public snapshots (CAIDA Ark, DET), one-shot imports (rDNS) and
// rotating-CPE artifacts.
//
// A Feed is a named deterministic generator over simulation days. The world
// generator wires concrete feeds to the synthetic Internet; the service
// core just pulls whatever is active.
package sources

import (
	"context"
	"fmt"
	"io"
	"sort"

	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/yarrp"
)

// Feed is one input source.
type Feed struct {
	// Name identifies the source in analyses ("dns-aaaa", "atlas", ...).
	Name string

	// FromDay/ToDay bound the feed's activity; one-shot imports use a
	// single-day window.
	FromDay, ToDay int

	// Collect returns the candidate addresses the feed contributes for a
	// given day. Implementations must be deterministic in day.
	Collect func(ctx context.Context, day int) ([]ip6.Addr, error)

	// Open, when set, supersedes Collect as the feed's streaming
	// backend: it returns a pull source whose addresses are never
	// materialized by the feed layer — hitlist-file feeds (.hl6 readers)
	// plug in here. Sources must be deterministic in day; closable
	// sources are closed by the consumer when the pull ends.
	Open func(ctx context.Context, day int) (scan.TargetSource, error)
}

// ActiveAt reports whether the feed produces data at the given day.
func (f *Feed) ActiveAt(day int) bool { return day >= f.FromDay && day < f.ToDay }

// NamedSource pairs a feed's name with its streaming candidate source
// for one day.
type NamedSource struct {
	Name string
	Src  scan.TargetSource
}

// Open returns one lazy pull source per feed active at day, preserving
// feed order. Collection runs on a source's first pull, so a consumer
// that stops early never pays for later feeds' Collect, and cancellation
// between feeds falls out of the pull loop.
func Open(ctx context.Context, feeds []*Feed, day int) []NamedSource {
	var out []NamedSource
	for _, f := range feeds {
		if !f.ActiveAt(day) {
			continue
		}
		out = append(out, NamedSource{Name: f.Name, Src: f.Source(ctx, day)})
	}
	return out
}

// Source returns a pull-based source over the feed's contribution for
// one day. Feeds with a streaming backend (Open) hand it out directly —
// opened lazily on the first pull so errors surface from Next like every
// other source failure; Collect-based feeds run Collect lazily on the
// first pull and stream the collected list. An inactive feed yields an
// immediately exhausted source.
func (f *Feed) Source(ctx context.Context, day int) scan.TargetSource {
	if f.Open != nil {
		return &openSource{ctx: ctx, f: f, day: day}
	}
	return &feedSource{ctx: ctx, f: f, day: day}
}

// openSource defers a streaming feed's Open to the first pull.
type openSource struct {
	ctx context.Context
	f   *Feed
	day int
	src scan.TargetSource
	err error
}

func (s *openSource) open() error {
	if s.src != nil || s.err != nil {
		return s.err
	}
	if !s.f.ActiveAt(s.day) {
		s.src = scan.SliceSource(nil)
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		return err
	}
	src, err := s.f.Open(s.ctx, s.day)
	if err != nil {
		s.err = err
		return err
	}
	s.src = src
	return nil
}

func (s *openSource) Next(buf []ip6.Addr) (int, error) {
	if err := s.open(); err != nil {
		return 0, s.attribute(err)
	}
	n, err := s.src.Next(buf)
	if err != nil && err != io.EOF {
		// Attribute mid-stream errors (a truncated hitlist file, a bad
		// read) to the feed, so multi-feed consumers know which import
		// failed; io.EOF is protocol, not failure, and passes through.
		err = s.attribute(err)
	}
	return n, err
}

func (s *openSource) attribute(err error) error {
	return fmt.Errorf("sources: feed %s at day %d: %w", s.f.Name, s.day, err)
}

func (s *openSource) Close() error {
	if s.src == nil {
		return nil
	}
	if c, ok := s.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

type feedSource struct {
	ctx     context.Context
	f       *Feed
	day     int
	started bool
	rest    ip6.SliceSource // the collected list
}

func (s *feedSource) collect() error {
	if s.started {
		return nil
	}
	s.started = true
	if !s.f.ActiveAt(s.day) {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	addrs, err := s.f.Collect(s.ctx, s.day)
	if err != nil {
		return fmt.Errorf("sources: feed %s at day %d: %w", s.f.Name, s.day, err)
	}
	s.rest = *ip6.NewSliceSource(addrs)
	return nil
}

func (s *feedSource) Next(buf []ip6.Addr) (int, error) {
	if err := s.collect(); err != nil {
		return 0, err
	}
	return s.rest.Next(buf)
}

// Span implements scan.SpanSource: consumers read the collected list in
// place.
func (s *feedSource) Span(max int) ([]ip6.Addr, error) {
	if err := s.collect(); err != nil {
		return nil, err
	}
	return s.rest.Span(max)
}

// HitlistFile builds a one-shot feed that streams a .hl6 binary hitlist
// (see internal/hlfile) straight off disk — the import path for real
// hitlist-scale snapshots: the feed layer holds no address list, the
// service's ingest pulls the mmap-backed reader chunk-wise. Note the
// consumer's own footprint still applies — core ingest routes one small
// record per candidate before its all-or-nothing admission sweep, so an
// import is scan-input-sized resident for that scan even under a memory
// budget (zmap6sim -hitlist is the truly constant-memory scan path).
// Like Snapshot, the window stays open for two weeks so the next
// scheduled scan picks it up; input dedup makes repeated delivery
// harmless.
func HitlistFile(name string, day int, path string) *Feed {
	return &Feed{
		Name:    name,
		FromDay: day,
		ToDay:   day + 14,
		Open: func(ctx context.Context, _ int) (scan.TargetSource, error) {
			return hlfile.OpenSource(path)
		},
	}
}

// Snapshot builds a one-shot feed that delivers a fixed address list (DET
// dumps, rDNS imports, Ark archives). The window stays open for two weeks
// so the next scheduled scan picks it up; the service's input dedup makes
// repeated delivery harmless.
func Snapshot(name string, day int, addrs []ip6.Addr) *Feed {
	cp := append([]ip6.Addr(nil), addrs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Less(cp[j]) })
	return &Feed{
		Name:    name,
		FromDay: day,
		ToDay:   day + 14,
		Collect: func(context.Context, int) ([]ip6.Addr, error) { return cp, nil },
	}
}

// Recurring builds a feed that produces generate(day) on every day of
// [from, to).
func Recurring(name string, from, to int, generate func(day int) []ip6.Addr) *Feed {
	return &Feed{
		Name:    name,
		FromDay: from,
		ToDay:   to,
		Collect: func(_ context.Context, day int) ([]ip6.Addr, error) {
			return generate(day), nil
		},
	}
}

// TracerouteFeed wraps a Yarrp tracer into a feed: each collection
// traceroutes the targets chosen by pick(day) and contributes the
// discovered router interfaces. This is how rotating-IID routers — and
// with them the GFW-sensitive Chinese addresses — enter the input.
func TracerouteFeed(name string, from, to int, tracer *yarrp.Tracer, pick func(day int) []ip6.Addr) *Feed {
	return &Feed{
		Name:    name,
		FromDay: from,
		ToDay:   to,
		Collect: func(ctx context.Context, day int) ([]ip6.Addr, error) {
			targets := pick(day)
			found, err := tracer.Trace(ctx, targets, day)
			if err != nil {
				return nil, err
			}
			return found.Sorted(), nil
		},
	}
}

// RotatingCPE builds the ISP artifact feed of Section 4.1: a pool of CPE
// devices with EUI-64 interface identifiers whose ISP rotates the assigned
// /56 every rotationDays. Every rotation re-emits the same MACs under new
// prefixes, so the cumulative input grows while the per-day set stays flat.
// A skew parameter makes a few MACs appear in many distinct subnets (the
// paper's top EUI-64 value occurred in 240 k addresses).
type RotatingCPE struct {
	ISP          *netmodel.AS
	Base         ip6.Prefix // pool of customer prefixes, e.g. a /32
	MACs         int        // distinct CPE devices
	PerDay       int        // devices observed per collection day
	RotationDays int
	Seed         uint64
}

// Feed converts the pool into a recurring feed over [from, to).
func (c RotatingCPE) Feed(name string, from, to int) *Feed {
	return Recurring(name, from, to, func(day int) []ip6.Addr {
		out := make([]ip6.Addr, 0, c.PerDay)
		period := uint64(0)
		if c.RotationDays > 0 {
			period = uint64(day) / uint64(c.RotationDays)
		}
		r := rng.NewStream(rng.Mix(c.Seed, uint64(day), 0xc3e), "cpe-day")
		for i := 0; i < c.PerDay; i++ {
			// Zipf-ish device choice: low device indices are observed
			// (and re-observed) most, heavy devices span many subnets.
			dev := uint64(r.Intn(c.MACs))
			if r.Bool(0.3) {
				dev = uint64(r.Intn(c.MACs/100 + 1))
			}
			mac := macFor(c.Seed, dev)
			// The customer /56 rotates with the period; the /64 inside
			// is the device's LAN.
			sub := rng.Mix(c.Seed, dev, period, 0x5ef) % (1 << 24)
			p64 := ip6.PrefixFrom(ip6.AddrFromUint64s(
				c.Base.Addr().Hi()|sub<<8, 0), 64)
			out = append(out, ip6.AddrFromMAC(p64, mac))
		}
		return out
	})
}

func macFor(seed, dev uint64) ip6.MAC {
	h := rng.Mix(seed, dev, 0x3ac)
	// A ZTE-like OUI for the heavy devices, mixed vendors for the rest.
	oui := [3]byte{0x00, 0x1e, 0x73}
	if dev%5 != 0 {
		oui = [3]byte{byte(0x28 + dev%7), byte(h >> 40), byte(h >> 32)}
	}
	return ip6.MAC{oui[0], oui[1], oui[2], byte(h >> 16), byte(h >> 8), byte(h)}
}
