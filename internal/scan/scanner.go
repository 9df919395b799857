// Package scan implements a ZMapv6-style stateless scanner against the
// synthetic Internet.
//
// Like the real tool, it sends one probe per (target, protocol), treats any
// returned packet as success — which is precisely how GFW-injected DNS
// answers were counted as responsive targets — supports retries to absorb
// probe loss, and emits ZMap-style CSV. Unlike the real tool it probes a
// netmodel.Network instead of a raw socket; everything above the probe layer
// is the same code path the paper's pipeline uses.
package scan

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
)

// Config parameterizes a scanner.
type Config struct {
	// Seed drives the deterministic loss draws.
	Seed uint64

	// Workers is the probe concurrency; 0 means GOMAXPROCS.
	Workers int

	// LossRate is the per-probe probability that either the probe or its
	// response is lost in transit.
	LossRate float64

	// Retries is how many times a lost probe is retransmitted.
	Retries int

	// QName is the DNS question sent on UDP/53 probes. The hitlist
	// service queries a AAAA record for www.google.com — a blocked
	// domain, which is what made the service GFW-sensitive. It is kept
	// for consistency (Section 4.2's argument) and filtered downstream.
	QName string

	// QNameFor, when set, overrides QName per target (the Section 4.2
	// unique-subdomain experiment).
	QNameFor func(ip6.Addr) string

	// RatePPS models the probes-per-second budget; it only affects the
	// reported scan duration, not wall-clock time.
	RatePPS int

	// BatchSize is the number of results per streamed batch; 0 means
	// DefaultBatchSize. It is a throughput knob only: scan outputs are
	// bit-identical across batch sizes.
	BatchSize int

	// SourceChunk is the number of targets StreamFrom pulls from a
	// TargetSource per Next/Span call; 0 means DefaultSourceChunk. A
	// throughput knob only: outputs are bit-identical across chunk
	// sizes.
	SourceChunk int

	// SinkQueueDepth, when > 0, decouples probe workers from the sink
	// through a bounded delivery queue of this many batches: one delivery
	// goroutine drains the queue in FIFO order (preserving the per-shard
	// Seq ordering of the Sink contract), probe workers run ahead until
	// the queue fills, and a slow consumer then applies backpressure
	// instead of stalling every worker inside each sink call. 0 invokes
	// the sink inline on the probe workers. A throughput knob only:
	// outputs are bit-identical either way.
	SinkQueueDepth int

	// FaultHook, when set, injects worker deaths into streams over a
	// ShardedSource (routed streams hold no whole shard a survivor could
	// redo, and never call it). Setting it also makes delivery
	// abort-atomic: a shard's batches reach the sink only once the shard
	// completed. Outputs are bit-identical with and without it.
	FaultHook FaultHook
}

// DefaultConfig mirrors the service's scanning configuration.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:     seed,
		LossRate: 0.01,
		Retries:  1,
		QName:    "www.google.com",
		RatePPS:  100_000,
	}
}

// Result is the outcome of probing one target on one protocol.
type Result struct {
	Target ip6.Addr
	Proto  netmodel.Protocol
	Day    int

	// Success is the ZMap view: some packet came back.
	Success bool

	Kind netmodel.RespKind
	FP   netmodel.TCPFingerprint

	// DNS carries the raw response messages for UDP/53 probes.
	DNS [][]byte

	// InjectedTruth is ground truth from the network model (how many DNS
	// messages were injected); used only to score detection quality.
	InjectedTruth int

	// Attempts is how many probes a real scanner would have transmitted
	// for this (target, protocol): k when the k-th attempt drew a
	// response, and the full 1+Retries when nothing ever came back — a
	// scanner cannot distinguish genuine silence from probe loss, so it
	// retransmits every retry at a dark address even though the
	// deterministic world lets ProbeOne stop probing early. Probe
	// accounting (Stats.ProbesSent, EstimatedSeconds) sums these instead
	// of charging 1+Retries unconditionally. uint16 packs into the
	// struct padding after Success, keeping Result at its pre-Attempts
	// size.
	Attempts uint16
}

// Stats aggregates a scan run (or, on a Batch, one batch of it).
type Stats struct {
	ProbesSent uint64
	Responses  uint64
	Successes  uint64
	// Batches is the number of streamed batches delivered.
	Batches uint64
	// EstimatedSeconds is the modeled scan duration at Config.RatePPS.
	EstimatedSeconds float64
	// PerShard breaks the stream's throughput down by canonical shard
	// (ip6.AddrShards entries). It is filled on the aggregate Stats a
	// stream call returns, nil on per-batch Stats. All fields but
	// ShardStats.Nanos are deterministic.
	PerShard []ShardStats
	// Workers holds the per-worker accounting of a stream over a
	// ShardedSource, one entry per configured worker (nil on routed
	// streams and per-batch Stats); Reissued counts the shards put back
	// after a worker death. Neither is deterministic.
	Workers  []WorkerStats
	Reissued int
}

// Scanner probes targets in a network.
type Scanner struct {
	net *netmodel.Network
	cfg Config

	// dnsQuery is the precomputed DNS probe template for the fixed-QName
	// configuration: the query is built and checked encodable once at
	// construction, and every UDP/53 probe carries the shared message
	// plus its per-probe transaction ID (netmodel.Probe.Query / TxID)
	// instead of building its own. It is read-only after New. With QNameFor set (per-target qnames) the
	// template is nil and probes build their query per call.
	dnsQuery *dnswire.Message

	// bufPool recycles batch result buffers across StreamFrom calls; sinks
	// must not retain batches, which is what makes this reuse sound.
	bufPool sync.Pool

	// arenaPool recycles the per-batch DNS wire arenas (UDP/53 streams
	// only). The same no-retention contract covers the payloads: a sink
	// keeping Result.DNS past its return must deep-copy it.
	arenaPool sync.Pool

	// lossTh is Config.LossRate as a threshold on the low 32 bits of the
	// per-attempt loss hash; 0 (never lost) when the rate is not positive.
	lossTh uint64

	// seedMix is rng.MixPrefix(Config.Seed), the state every target's
	// loss and transaction-ID hashes resume from.
	seedMix rng.MixState
}

// New builds a scanner over the given network.
func New(net *netmodel.Network, cfg Config) *Scanner {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QName == "" {
		cfg.QName = "www.google.com"
	}
	if cfg.RatePPS <= 0 {
		cfg.RatePPS = 100_000
	}
	s := &Scanner{net: net, cfg: cfg, seedMix: rng.MixPrefix(cfg.Seed)}
	if cfg.LossRate > 0 {
		s.lossTh = uint64(cfg.LossRate * (1 << 32))
	}
	if cfg.QNameFor == nil {
		// An unencodable QName leaves the template nil; the per-probe
		// path then reports it exactly as before (panic on first UDP/53
		// probe), so template construction never changes behavior.
		q := dnswire.NewQuery(0, cfg.QName, dnswire.TypeAAAA)
		if _, err := q.Encode(); err == nil {
			s.dnsQuery = q
		}
	}
	return s
}

// Config returns the scanner's configuration.
func (s *Scanner) Config() Config { return s.cfg }

// target is one scan target resolved for one day: everything probing it
// needs that depends on neither the protocol nor the attempt — the
// network's alias-rule and host lookup, and the (seed, address) prefix
// the loss and DNS transaction-ID hashes share. The engine's probe loop
// is target-major, so this is computed once per target and reused across
// its protocols and retries.
type target struct {
	addr ip6.Addr
	day  int
	res  netmodel.Resolved
	mix  rng.MixState // rng.MixPrefix(seed, addr.Hi(), addr.Lo())
}

// resolve looks a target up for a day into t, in place (the probe loop
// reuses one target). shard must be ip6.ShardOf(addr).
func (s *Scanner) resolve(t *target, addr ip6.Addr, shard, day int) {
	t.addr, t.day = addr, day
	t.res = s.net.Resolve(addr, shard, day)
	t.mix = s.seedMix.Add(addr.Hi()).Add(addr.Lo())
}

// ProbeOne probes a single target with a single protocol, honoring loss
// and retries. A UDP/53 probe makes its DNS plan for the call.
func (s *Scanner) ProbeOne(addr ip6.Addr, proto netmodel.Protocol, day int) Result {
	var t target
	sh := ip6.ShardOf(addr)
	s.resolve(&t, addr, sh, day)
	var res Result
	s.net.CountProbes(sh, s.probe(&t, proto, nil, nil, &res))
	return res
}

// probe sends one protocol's probes at a resolved target and fills res,
// which must be zero, in place — field by field, because a composite
// store of the whole Result is a block copy on this, the hottest loop of
// a scan. The response's DNS wire buffers are drawn from arena slots when
// one is supplied — the streaming engine's path, which pairs an arena
// with each batch and recycles both together; res.DNS then aliases arena
// memory and is only valid until the arena resets. plan, when non-nil, is
// the scan's shared DNS plan for s.dnsQuery on t.day. It returns how many
// probes the network served — attempts lost before reaching it are not
// among them — for the caller to add to the network's ProbeCount.
func (s *Scanner) probe(t *target, proto netmodel.Protocol, arena *netmodel.WireArena, plan *netmodel.DNSPlan, res *Result) (served uint64) {
	res.Target, res.Proto, res.Day = t.addr, proto, t.day
	var pr netmodel.Probe
	s.buildProbe(&pr, t, proto)
	pr.Arena, pr.Plan = arena, plan
	// Deterministic per-attempt loss: Mix(seed, hi, lo, proto, day,
	// attempt, 0x1055) against the loss threshold. With loss off the
	// threshold is 0, no draw can fall below it, and none is hashed.
	var loss rng.MixState
	if s.lossTh != 0 {
		loss = t.mix.Add(uint64(proto)).Add(uint64(t.day))
	}
	for attempt := 0; attempt <= s.cfg.Retries; attempt++ {
		if s.lossTh != 0 && loss.Add(uint64(attempt)).Add(0x1055).Sum()&0xffffffff < s.lossTh {
			continue
		}
		resp := s.net.ProbeResolved(&pr, &t.res)
		served++
		if resp.Kind == netmodel.RespNone {
			// Genuine silence: retrying cannot change the outcome, the
			// world is deterministic within a day.
			break
		}
		// ZMap classification: an RST means the host is alive but the
		// port is closed — recorded, but not a success.
		res.Success = resp.Positive() && resp.Kind != netmodel.RespRST
		res.Kind = resp.Kind
		res.FP = resp.FP
		res.DNS = resp.DNS
		res.InjectedTruth = resp.InjectedCount
		res.Attempts = uint16(attempt + 1)
		break
	}
	if res.Kind == netmodel.RespNone {
		// No packet ever came back; a real scanner retransmits every
		// retry at a silent target.
		res.Attempts = uint16(1 + s.cfg.Retries)
	}
	return served
}

// buildProbe fills the zero probe pr for one protocol at a resolved
// target; ProbeResolved takes the target and day from t.res.
func (s *Scanner) buildProbe(pr *netmodel.Probe, t *target, proto netmodel.Protocol) {
	switch proto {
	case netmodel.ICMP:
		pr.Kind, pr.Size = netmodel.EchoRequest, 8
	case netmodel.TCP80:
		pr.Kind, pr.Port = netmodel.TCPSYN, 80
	case netmodel.TCP443:
		pr.Kind, pr.Port = netmodel.TCPSYN, 443
	case netmodel.UDP443:
		pr.Kind, pr.Port = netmodel.QUICInitial, 443
	case netmodel.UDP53:
		pr.Kind = netmodel.DNSQuery
		pr.TxID = uint16(t.mix.Add(uint64(t.day)).Sum())
		if s.dnsQuery != nil {
			// Template fast path: the shared parsed query plus the
			// per-probe transaction ID.
			pr.Query = s.dnsQuery
			return
		}
		qname := s.cfg.QName
		if s.cfg.QNameFor != nil {
			qname = s.cfg.QNameFor(t.addr)
		}
		q := dnswire.NewQuery(pr.TxID, qname, dnswire.TypeAAAA)
		if _, err := q.Encode(); err != nil {
			panic(fmt.Sprintf("scan: building DNS query for %q: %v", qname, err))
		}
		pr.Query = q
	default:
		panic(fmt.Sprintf("scan: unknown protocol %v", proto))
	}
}

// StreamResponsiveFrom probes everything src yields and returns, per
// protocol, the set of targets that answered, never materializing the
// target list or the result cross product. The sink appends each success
// to its protocol's column for the batch's shard — a shard's batches
// arrive one at a time, so only one goroutine writes a column — and each
// column is sorted and deduplicated once the stream ends, since a source
// may repeat a target.
func (s *Scanner) StreamResponsiveFrom(ctx context.Context, src TargetSource, protos []netmodel.Protocol, day int) (map[netmodel.Protocol]*ip6.SortedShardSet, Stats, error) {
	var cols [netmodel.NumProtocols][ip6.AddrShards][]ip6.Addr
	st, err := s.StreamFrom(ctx, src, protos, day, func(b *Batch) error {
		for i := range b.Results {
			if r := &b.Results[i]; r.Success {
				cols[r.Proto][b.Shard] = append(cols[r.Proto][b.Shard], r.Target)
			}
		}
		return nil
	})
	sets := make(map[netmodel.Protocol]*ip6.SortedShardSet, len(protos))
	for _, p := range protos {
		sets[p] = ip6.SortShards(cols[p])
	}
	return sets, st, err
}
