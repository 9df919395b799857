// Package fingerprint implements the two alias-verification techniques of
// Section 5.1: TCP-feature fingerprinting and the Too Big Trick (TBT).
//
// Fingerprinting compares TCP handshake features (option order, window,
// window scale, MSS, iTTL) across addresses of an aliased prefix: equal
// values are consistent with one host, differing values indicate several.
// The TBT exploits IPv6's end-host-only fragmentation: poisoning one
// address's PMTU cache and observing which sibling addresses subsequently
// fragment reveals how many addresses share a server.
package fingerprint

import (
	"context"
	"fmt"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
)

// FPSample is the fingerprint observed at one address.
type FPSample struct {
	Addr ip6.Addr
	FP   netmodel.TCPFingerprint
}

// CollectTCP handshakes with n pseudo-random addresses inside prefix and
// returns the observed fingerprints in canonical shard order (draw order
// within a shard), so the samples are the same for any worker count.
// Unresponsive draws are skipped.
func CollectTCP(ctx context.Context, s *scan.Scanner, prefix ip6.Prefix, n, day int) ([]FPSample, error) {
	r := rng.NewStream(rng.Mix(prefix.Addr().Hi(), uint64(prefix.Bits()), uint64(day)), "fp-collect")
	targets := make([]ip6.Addr, n)
	for i := range targets {
		targets[i] = prefix.RandomAddr(r)
	}
	// Same-shard batches arrive in order on one goroutine at a time, so
	// the per-shard slots need no locking.
	var shards [ip6.AddrShards][]FPSample
	_, err := s.StreamFrom(ctx, scan.SliceSource(targets), []netmodel.Protocol{netmodel.TCP80}, day, func(b *scan.Batch) error {
		for _, res := range b.Results {
			if res.Success && res.Kind == netmodel.RespSynAck {
				shards[b.Shard] = append(shards[b.Shard], FPSample{Addr: res.Target, FP: res.FP})
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fingerprint: scanning %v: %w", prefix, err)
	}
	var out []FPSample
	for _, sh := range shards {
		out = append(out, sh...)
	}
	return out, nil
}

// FPSummary aggregates fingerprints over one prefix.
type FPSummary struct {
	Samples int
	// Distinct counts distinct full fingerprints.
	Distinct int
	// DistinctIgnoringWindow counts distinct fingerprints when the TCP
	// window — which may legitimately vary per connection — is ignored.
	DistinctIgnoringWindow int
	// Uniform: all samples match on every feature.
	Uniform bool
	// WindowOnly: differences exist but only in the window size.
	WindowOnly bool
}

// Summarize reduces samples to an FPSummary.
func Summarize(samples []FPSample) FPSummary {
	sum := FPSummary{Samples: len(samples)}
	if len(samples) == 0 {
		return sum
	}
	full := make(map[netmodel.TCPFingerprint]struct{})
	noWin := make(map[netmodel.TCPFingerprint]struct{})
	for _, s := range samples {
		full[s.FP] = struct{}{}
		f := s.FP
		f.Window = 0
		noWin[f] = struct{}{}
	}
	sum.Distinct = len(full)
	sum.DistinctIgnoringWindow = len(noWin)
	sum.Uniform = len(full) == 1
	sum.WindowOnly = len(full) > 1 && len(noWin) == 1
	return sum
}

// TBTOutcome classifies a Too Big Trick run.
type TBTOutcome uint8

// TBT outcomes; the paper reports 93.75 % AllShared, 0.85 % NoneShared and
// 5.4 % PartialShared over the prefixes where the trick applies.
const (
	TBTUnsupported   TBTOutcome = iota // targets unresponsive or already fragmenting
	TBTAllShared                       // all tested addresses share one PMTU cache
	TBTNoneShared                      // only the poisoned address fragments
	TBTPartialShared                   // some but not all share (CDN fleets)
)

// String names the outcome.
func (o TBTOutcome) String() string {
	switch o {
	case TBTUnsupported:
		return "unsupported"
	case TBTAllShared:
		return "all-shared"
	case TBTNoneShared:
		return "none-shared"
	case TBTPartialShared:
		return "partial-shared"
	}
	return "unknown"
}

// TBTResult reports one Too Big Trick run over a prefix.
type TBTResult struct {
	Prefix  ip6.Prefix
	Outcome TBTOutcome
	// Tested is how many addresses passed the pre-check.
	Tested int
	// Fragmented is how many of the tested addresses returned fragmented
	// replies after the single PTB message (including the poisoned one).
	Fragmented int
}

// Prober is the minimal wire access the TBT needs; *netmodel.Network
// satisfies it.
type Prober interface {
	Probe(netmodel.Probe) netmodel.Response
}

// TBTAddresses is the number of addresses under test, as in the paper.
const TBTAddresses = 8

// TooBigTrick runs the three-step procedure of Beverly et al. as applied
// by Song et al. against one prefix:
//
//	(i)   verify 8 addresses answer 1300-byte echos unfragmented,
//	(ii)  send an ICMPv6 Packet Too Big (MTU 1280) to one of them,
//	(iii) re-probe all and count fragmented replies.
func TooBigTrick(p Prober, prefix ip6.Prefix, day int) TBTResult {
	res := TBTResult{Prefix: prefix}
	r := rng.NewStream(rng.Mix(prefix.Addr().Hi(), prefix.Addr().Lo(), uint64(prefix.Bits()), uint64(day)), "tbt")
	const echoSize = 1300

	// Step (i): responsive, unfragmented baseline.
	var under []ip6.Addr
	for attempts := 0; attempts < 4*TBTAddresses && len(under) < TBTAddresses; attempts++ {
		a := prefix.RandomAddr(r)
		resp := p.Probe(netmodel.Probe{Kind: netmodel.EchoRequest, Target: a, Day: day, Size: echoSize})
		if resp.Kind == netmodel.RespEchoReply && !resp.Fragmented {
			under = append(under, a)
		}
	}
	res.Tested = len(under)
	if len(under) < TBTAddresses {
		res.Outcome = TBTUnsupported
		return res
	}

	// Step (ii): poison one address's path MTU.
	p.Probe(netmodel.Probe{Kind: netmodel.PacketTooBig, Target: under[0], Day: day, MTU: 1280})

	// Step (iii): who fragments now?
	for _, a := range under {
		resp := p.Probe(netmodel.Probe{Kind: netmodel.EchoRequest, Target: a, Day: day, Size: echoSize})
		if resp.Kind == netmodel.RespEchoReply && resp.Fragmented {
			res.Fragmented++
		}
	}
	switch {
	case res.Fragmented >= res.Tested:
		res.Outcome = TBTAllShared
	case res.Fragmented <= 1:
		res.Outcome = TBTNoneShared
	default:
		res.Outcome = TBTPartialShared
	}
	return res
}
