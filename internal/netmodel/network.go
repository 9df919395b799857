package netmodel

import (
	"sort"
	"sync"
	"sync/atomic"

	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
	"hitlist6/internal/rng"
)

// ProbeKind is the wire-level probe type.
type ProbeKind uint8

// Probe kinds.
const (
	EchoRequest  ProbeKind = iota // ICMPv6 echo request (Size selects payload)
	TCPSYN                        // TCP SYN to Port
	DNSQuery                      // UDP datagram to port 53 carrying Query
	QUICInitial                   // UDP datagram to port 443 (QUIC Initial)
	PacketTooBig                  // ICMPv6 Packet Too Big carrying MTU
)

// Probe is one outgoing packet. Network.Probe sends it to Target on
// Day; ProbeResolved takes both from its Resolved instead.
type Probe struct {
	Kind   ProbeKind
	Target ip6.Addr
	Day    int
	Size   int    // echo payload size (TBT sends 1300 B)
	Port   uint16 // TCP destination port
	MTU    uint16 // MTU announced in PacketTooBig

	// Query is a DNSQuery probe's question, already parsed — the scanner
	// shares one per-qname template across probes, so the probe hot path
	// never parses wire bytes. The message must be treated as read-only;
	// TxID carries the per-probe transaction ID the reply echoes
	// (Query.Header.ID is ignored). A DNSQuery with a nil Query, or one
	// without a question, draws no answer.
	Query *dnswire.Message
	TxID  uint16

	// Plan, when non-nil, is PlanDNS(Query, Day) made once and shared by
	// every probe carrying the same Query on the same Day — the scan
	// engine makes one per scan. A plan is valid for one query and one
	// day: a DNSQuery probe whose Plan was made for another query or day,
	// or that has none, has one made for the call.
	Plan *DNSPlan

	// Arena, when non-nil, recycles the response's DNS wire buffers:
	// replies are appended into arena slots instead of fresh heap
	// allocations, and the caller reuses them by Reset once the response
	// is consumed. The scan engine pairs one arena with each batch; nil
	// (the default) keeps per-probe heap allocation.
	Arena *WireArena
}

// RespKind is the wire-level response type.
type RespKind uint8

// Response kinds.
const (
	RespNone RespKind = iota // silence (timeout)
	RespEchoReply
	RespSynAck
	RespRST
	RespDNS
	RespQUIC
	RespUnreach
)

// Response is what (if anything) came back for a probe.
type Response struct {
	Kind RespKind

	// Fragmented marks a fragmented echo reply (TBT evidence).
	Fragmented bool

	// FP carries the TCP fingerprint for SYN-ACK responses.
	FP TCPFingerprint

	// DNS carries one or more wire-format DNS messages; more than one
	// indicates multiple responders (e.g. several GFW injectors).
	DNS [][]byte

	// InjectedCount is ground truth — how many of the DNS messages were
	// forged by the GFW. Detection code must never read it; it exists so
	// tests can score the detector.
	InjectedCount int
}

// Positive reports whether the response would be counted as target
// responsiveness by a ZMap-style scanner (any packet back except an
// unreachable).
func (r Response) Positive() bool {
	return r.Kind != RespNone && r.Kind != RespUnreach
}

// NSQuery is a query observed at the experimenter's authoritative name
// server (the unique-subdomain experiment of Section 4.2).
type NSQuery struct {
	Source ip6.Addr
	QName  string
}

// Network is the synthetic Internet.
type Network struct {
	Seed uint64

	// AS is the BGP view.
	AS *ASTable

	// GFW is the injection model (may be nil for GFW-free worlds).
	GFW *GFWModel

	// OurZone is the experimenter-controlled DNS zone used by the
	// Section 4.2 behaviour evaluation.
	OurZone string

	hosts   map[ip6.Addr]*Host
	hostIdx *hostIndex
	aliases *ip6.PrefixMap[*AliasRule]
	pmtu    *pmtuCache

	nsmu  sync.Mutex
	nslog []NSQuery

	// probes counts served probes on shard-striped padded atomics: the
	// scan engine works one shard per worker at a time, so concurrent
	// workers add to disjoint cache lines, and they add once per segment
	// of probing (CountProbes) rather than once per probe. ProbeCount
	// aggregates the stripes on read.
	probes [ip6.AddrShards]probeStripe

	// transit caches the backbone ASes for path synthesis.
	transit []*AS
}

// probeStripe is one padded counter stripe (its own cache line).
type probeStripe struct {
	n atomic.Uint64
	_ [56]byte
}

// NewNetwork builds an empty world over the given AS table.
func NewNetwork(seed uint64, table *ASTable) *Network {
	return &Network{
		Seed:    seed,
		AS:      table,
		OurZone: "hitlist-exp.example",
		hosts:   make(map[ip6.Addr]*Host),
		aliases: ip6.NewPrefixMap[*AliasRule](),
		pmtu:    newPMTUCache(),
	}
}

// AddHost registers a host. Later registrations of the same address win.
// Adding a host invalidates a previous Seal.
func (n *Network) AddHost(h *Host) {
	n.hosts[h.Addr] = h
	n.hostIdx = nil
}

// Seal freezes the world's lookup structures for probing: the host table
// into a shard-aligned sorted index (binary search over packed 16-byte
// keys instead of map hashing), and the alias-rule and BGP prefix tables
// into flat sorted segment indexes (ip6.PrefixMap.Freeze). Responses are
// bit-identical either way; sealing is purely a probe-throughput
// optimization. Call it once world assembly is done (the world generator
// does); AddHost drops the host seal and any table mutation drops its
// own frozen index, so a resumed build simply falls back to the map
// paths until resealed. Seal must not race with concurrent probes.
func (n *Network) Seal() {
	n.hostIdx = buildHostIndex(n.hosts)
	n.aliases.Freeze()
	if n.AS != nil {
		n.AS.Freeze()
	}
}

// Sealed reports whether the frozen host index is live.
func (n *Network) Sealed() bool { return n.hostIdx != nil }

// lookupHost resolves the host registered at a, through the sealed index
// when one is live. shard must be ip6.ShardOf(a).
func (n *Network) lookupHost(shard int, a ip6.Addr) *Host {
	if idx := n.hostIdx; idx != nil {
		return idx.lookup(shard, a)
	}
	return n.hosts[a]
}

// AddAlias registers an aliased (fully responsive) prefix rule.
func (n *Network) AddAlias(r *AliasRule) { n.aliases.Insert(r.Prefix, r) }

// NumHosts returns the number of registered hosts.
func (n *Network) NumHosts() int { return len(n.hosts) }

// Host returns the host registered at addr, if any (ground truth).
func (n *Network) Host(addr ip6.Addr) (*Host, bool) {
	h, ok := n.hosts[addr]
	return h, ok
}

// WalkHosts visits every registered host (ground truth; iteration order is
// unspecified).
func (n *Network) WalkHosts(fn func(*Host) bool) {
	for _, h := range n.hosts {
		if !fn(h) {
			return
		}
	}
}

// AliasRules returns all registered alias rules (ground truth, for
// scoring detection quality in tests and for the world generator),
// ordered by prefix. The stable order matters: consumers draw random
// indexes into the list (the world generator's DET source, the ablation
// harness), and the old map-order walk made those draws — and therefore
// several evaluation artifacts — differ from run to run.
func (n *Network) AliasRules() []*AliasRule {
	out := make([]*AliasRule, 0, n.aliases.Len())
	n.aliases.Walk(func(_ ip6.Prefix, r *AliasRule) bool {
		out = append(out, r)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return ip6.ComparePrefix(out[i].Prefix, out[j].Prefix) < 0
	})
	return out
}

// AliasRuleFor returns the alias rule covering addr at the given day.
func (n *Network) AliasRuleFor(addr ip6.Addr, day int) (*AliasRule, bool) {
	_, r, ok := n.aliases.Lookup(addr)
	if !ok || !r.activeAt(day) {
		return nil, false
	}
	return r, true
}

// ProbeCount returns how many probes the network has served — the load
// measure ethics sections care about. It aggregates the per-shard counter
// stripes on read.
func (n *Network) ProbeCount() uint64 {
	var total uint64
	for i := range n.probes {
		total += n.probes[i].n.Load()
	}
	return total
}

// CountProbes adds k probes served to targets of shard to ProbeCount.
// Probe counts its own call; a caller of ProbeResolved counts the calls
// it made, and may add up many of them first.
func (n *Network) CountProbes(shard int, k uint64) {
	if k > 0 {
		n.probes[shard].n.Add(k)
	}
}

// ResetPMTU clears all poisoned PMTU caches (between TBT runs).
func (n *Network) ResetPMTU() { n.pmtu.reset() }

// NSLogSnapshot returns and clears the queries seen at our authoritative
// name server.
func (n *Network) NSLogSnapshot() []NSQuery {
	n.nsmu.Lock()
	defer n.nsmu.Unlock()
	out := n.nslog
	n.nslog = nil
	return out
}

func (n *Network) recordNSQuery(src ip6.Addr, qname string) {
	n.nsmu.Lock()
	defer n.nsmu.Unlock()
	n.nslog = append(n.nslog, NSQuery{Source: src, QName: qname})
}

// TrueResponds is ground truth: whether target would answer protocol p at
// the given day (alias rules, live hosts, and GFW injection for UDP/53
// towards blocked domains — the last mirrors what a ZMap scan measures).
// Measurement code must use the scanner; this exists for world assembly
// and test scoring.
func (n *Network) TrueResponds(target ip6.Addr, p Protocol, day int) bool {
	if r, ok := n.AliasRuleFor(target, day); ok && r.Protos.Has(p) {
		return true
	}
	if h := n.lookupHost(ip6.ShardOf(target), target); h != nil && h.RespondsTo(p, day) {
		return true
	}
	if p == UDP53 && n.GFW != nil && n.GFW.ActiveAt(day) {
		if as := n.AS.Lookup(target); as != nil && n.GFW.AffectedASNs[as.ASN] {
			return true
		}
	}
	return false
}

// Resolved is a probe target looked up for one day: the active alias rule
// covering it (if any) and the registered host at the exact address (if
// any). Nothing in it depends on the probe's protocol, so a scanner
// resolves each target once and reuses the result for every protocol it
// probes that day (ProbeResolved); every probe handler reads from it, so
// the alias longest-prefix match and the host lookup never happen twice.
type Resolved struct {
	target ip6.Addr
	shard  int
	day    int
	rule   *AliasRule
	host   *Host
}

// responds reports whether the target answers proto on the resolved day.
func (r *Resolved) responds(proto Protocol) bool {
	if r.rule != nil && r.rule.Protos.Has(proto) {
		return true
	}
	return r.host != nil && r.host.RespondsTo(proto, r.day)
}

// Resolve performs the one alias + host lookup of a target. shard must be
// ip6.ShardOf(target): the sealed host index is searched in that shard
// only, so a wrong shard misses the host.
func (n *Network) Resolve(target ip6.Addr, shard, day int) Resolved {
	res := Resolved{target: target, shard: shard, day: day}
	if _, r, ok := n.aliases.Lookup(target); ok && r.activeAt(day) {
		res.rule = r
	}
	res.host = n.lookupHost(shard, target)
	return res
}

// Probe sends one probe into the world and returns the response.
// It is safe for concurrent use.
func (n *Network) Probe(p Probe) Response {
	res := n.Resolve(p.Target, ip6.ShardOf(p.Target), p.Day)
	n.CountProbes(res.shard, 1)
	return n.ProbeResolved(&p, &res)
}

// ProbeResolved is Probe against an already resolved target: the target
// and day are taken from res, whatever p.Target and p.Day say. p is only
// read, so a caller may send the same probe again. It does not count
// toward ProbeCount: the caller reports its calls through CountProbes.
func (n *Network) ProbeResolved(p *Probe, res *Resolved) Response {
	switch p.Kind {
	case EchoRequest:
		return n.probeEcho(p, res)
	case TCPSYN:
		return n.probeTCP(p, res)
	case DNSQuery:
		return n.probeDNS(p, res)
	case QUICInitial:
		return n.probeQUIC(p, res)
	case PacketTooBig:
		return n.probePTB(p, res)
	}
	return Response{}
}

// effectiveMTU returns the responder's current PMTU towards us and the
// cache key, honoring poisoned caches.
func (n *Network) effectiveMTU(target ip6.Addr, day int, res *Resolved) (uint16, pmtuKey, bool) {
	if r := res.rule; r != nil {
		key := pmtuKey{prefix: r.Prefix, backend: r.BackendOf(target)}
		if mtu, ok := n.pmtu.get(key, day); ok {
			return mtu, key, true
		}
		mtu := r.MTU
		if mtu == 0 {
			mtu = 1500
		}
		return mtu, key, true
	}
	if h := res.host; h != nil {
		key := pmtuKey{host: target}
		if mtu, ok := n.pmtu.get(key, day); ok {
			return mtu, key, true
		}
		mtu := h.MTU
		if mtu == 0 {
			mtu = 1500
		}
		return mtu, key, true
	}
	return 0, pmtuKey{}, false
}

func (n *Network) probeEcho(p *Probe, res *Resolved) Response {
	if !res.responds(ICMP) {
		return Response{}
	}
	mtu, _, _ := n.effectiveMTU(res.target, res.day, res)
	frag := p.Size > 0 && p.Size+48 > int(mtu) // 40 B IPv6 + 8 B ICMPv6 headers
	return Response{Kind: RespEchoReply, Fragmented: frag}
}

func (n *Network) probePTB(p *Probe, res *Resolved) Response {
	// Packet Too Big poisons the responder's PMTU cache; no reply.
	if !res.responds(ICMP) {
		return Response{}
	}
	mtu := p.MTU
	if mtu < 1280 {
		mtu = 1280
	}
	if _, key, ok := n.effectiveMTU(res.target, res.day, res); ok {
		n.pmtu.set(key, mtu, res.day)
	}
	return Response{}
}

func (n *Network) probeTCP(p *Probe, res *Resolved) Response {
	var proto Protocol
	switch p.Port {
	case 80:
		proto = TCP80
	case 443:
		proto = TCP443
	default:
		return Response{}
	}
	if r := res.rule; r != nil && r.Protos.Has(proto) {
		return Response{Kind: RespSynAck, FP: r.FingerprintFor(res.target)}
	}
	if h := res.host; h != nil {
		if h.RespondsTo(proto, res.day) {
			return Response{Kind: RespSynAck, FP: h.FP}
		}
		// A live host without the port sends RST when it is up at all.
		if h.upAt(res.day) && h.Protos.Has(ICMP) {
			return Response{Kind: RespRST}
		}
	}
	return Response{}
}

func (n *Network) probeQUIC(p *Probe, res *Resolved) Response {
	if res.responds(UDP443) {
		return Response{Kind: RespQUIC}
	}
	return Response{}
}

func (n *Network) probeDNS(p *Probe, res *Resolved) Response {
	if p.Query == nil || len(p.Query.Questions) == 0 {
		return Response{}
	}
	plan := p.Plan
	if plan == nil || plan.query != p.Query || plan.day != res.day {
		own := n.PlanDNS(p.Query, res.day)
		plan = &own
	}
	var resp Response

	// GFW injection happens on the path, before and regardless of the
	// target itself; only a plan that can inject pays the AS lookup.
	if plan.inject {
		if injected := n.GFW.injectInto(p.Arena, plan, res.target, n.AS.Lookup(res.target), p.TxID); len(injected) > 0 {
			resp.DNS = injected
			resp.InjectedCount = len(injected)
			resp.Kind = RespDNS
		}
	}

	// The target's own answer, if it serves DNS.
	behavior := DNSNone
	if r := res.rule; r != nil && r.Protos.Has(UDP53) {
		behavior = r.DNS
		if behavior == DNSNone {
			behavior = DNSRefusing
		}
	} else if h := res.host; h != nil && h.RespondsTo(UDP53, res.day) {
		behavior = h.DNS
		if behavior == DNSNone {
			behavior = DNSRefusing
		}
	}
	if behavior != DNSNone {
		if wire := n.answerDNS(p.Arena, plan, res.target, behavior, p.TxID); wire != nil {
			if resp.DNS == nil {
				resp.DNS = p.Arena.List()
			}
			resp.DNS = p.Arena.SealList(append(resp.DNS, wire))
			resp.Kind = RespDNS
		}
	}
	return resp
}

// syntheticAAAA derives the "correct" AAAA record for a name: a stable
// pseudo-address inside a hosting range. Both the open resolvers in the
// world and our own zone's authoritative server agree on it.
func syntheticAAAA(qname string) ip6.Addr {
	h := rng.HashString(dnswire.NormalizeName(qname))
	return ip6.AddrFromUint64s(0x2a0e_b107_0000_0000|h>>40, h)
}

func (n *Network) answerDNS(arena *WireArena, plan *DNSPlan, src ip6.Addr, behavior DNSBehavior, txid uint16) []byte {
	query := plan.query
	q := query.Questions[0]
	// replyHeader is the header every branch shares; AppendReply takes it
	// directly for the single-allocation fast paths, the slow branches
	// copy it into a full Message.
	hdr := dnswire.Header{
		ID:               txid,
		Response:         true,
		RecursionDesired: query.Header.RecursionDesired,
	}
	switch behavior {
	case DNSRefusing:
		hdr.RCode = dnswire.RCodeRefused
		return n.replyWire(arena, query, hdr, 0, 0, nil)
	case DNSOpenResolver, DNSProxy:
		hdr.RecursionAvailable = true
		if plan.inOurZone {
			logged := src
			if behavior == DNSProxy {
				// The recursion exits through a different interface: the
				// query source at our name server does not match the
				// probed target.
				logged[15] ^= 0x5a
				logged[14] ^= 0x01
			}
			n.recordNSQuery(logged, dnswire.NormalizeName(q.Name))
		}
		if q.Type == dnswire.TypeAAAA {
			return n.replyWire(arena, query, hdr, dnswire.TypeAAAA, 300, plan.aaaa[:])
		}
		return n.replyWire(arena, query, hdr, 0, 0, nil)
	case DNSReferral:
		// Upward referral to the root zone; multi-record authority
		// sections go through the generic encoder.
		reply := &dnswire.Message{Header: hdr, Questions: query.Questions}
		reply.Authority = append(reply.Authority,
			dnswire.RR{Name: "", Type: dnswire.TypeNS, TTL: 518400, Target: "a.root-servers.net"},
			dnswire.RR{Name: "", Type: dnswire.TypeNS, TTL: 518400, Target: "b.root-servers.net"},
		)
		return encodeReply(reply)
	case DNSBroken:
		// Incorrect status codes or referrals to localhost.
		if rng.Mix(src.Hi(), src.Lo(), uint64(plan.day), 0xb40c)%2 == 0 {
			hdr.RCode = dnswire.RCodeNotImp
			return n.replyWire(arena, query, hdr, 0, 0, nil)
		}
		reply := &dnswire.Message{Header: hdr, Questions: query.Questions}
		reply.Answers = append(reply.Answers, dnswire.RR{
			Name: q.Name, Type: dnswire.TypeCNAME, TTL: 0, Target: "localhost",
		})
		return encodeReply(reply)
	}
	return nil
}

// replyWire encodes a reply to query: header hdr, the question section
// echoed, and (when ansType != 0) one address answer named after the
// first question. Single-question queries — every query the scanner
// sends — take the dnswire.AppendReply fast path, appending into a
// recycled arena slot when one is supplied (one allocation without,
// zero steady-state with); anything else falls back to the generic
// encoder, whose output the fast path matches byte for byte. Invalid
// names panic as the old Encode path did (they were parsed off the
// wire, so failure is a programming error).
func (n *Network) replyWire(arena *WireArena, query *dnswire.Message, hdr dnswire.Header, ansType dnswire.Type, ttl uint32, rdata []byte) []byte {
	if len(query.Questions) == 1 {
		wire, err := dnswire.AppendReply(arena.Wire(), hdr, query.Questions[0], ansType, ttl, rdata)
		if err != nil {
			panic("netmodel: encoding DNS answer: " + err.Error())
		}
		return arena.Seal(wire)
	}
	reply := &dnswire.Message{Header: hdr, Questions: query.Questions}
	if ansType != 0 {
		rr := dnswire.RR{Name: query.Questions[0].Name, Type: ansType, TTL: ttl}
		switch ansType {
		case dnswire.TypeA:
			copy(rr.A[:], rdata)
		case dnswire.TypeAAAA:
			copy(rr.AAAA[:], rdata)
		}
		reply.Answers = append(reply.Answers, rr)
	}
	return encodeReply(reply)
}

// encodeReply is the generic-path encoder with the same panic contract.
func encodeReply(m *dnswire.Message) []byte {
	wire, err := m.Encode()
	if err != nil {
		panic("netmodel: encoding DNS answer: " + err.Error())
	}
	return wire
}

func nameInZone(name, zone string) bool {
	name = dnswire.NormalizeName(name)
	zone = dnswire.NormalizeName(zone)
	if name == zone {
		return true
	}
	return len(name) > len(zone)+1 && name[len(name)-len(zone):] == zone && name[len(name)-len(zone)-1] == '.'
}
