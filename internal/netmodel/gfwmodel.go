package netmodel

import (
	"encoding/binary"

	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
	"hitlist6/internal/rng"
)

// InjectionMode selects the record shape the injector forges. The paper
// observed A-record injection in the earlier events and Teredo-carrying
// AAAA records in the 2021/2022 event.
type InjectionMode uint8

// Injection modes.
const (
	InjectA InjectionMode = iota
	InjectTeredo
)

// InjectionEra is one period of GFW DNS-injection behaviour as seen from
// the (non-Chinese) vantage point. The three spikes in Figure 3 correspond
// to three eras.
type InjectionEra struct {
	StartDay int
	EndDay   int
	Mode     InjectionMode
}

// GFWModel simulates the Great Firewall's DNS injection at the border of
// Chinese networks: any UDP/53 query for a censored domain whose target
// sits inside an affected AS receives multiple forged answers, regardless
// of whether the target host exists.
type GFWModel struct {
	// AffectedASNs are the Chinese ASes whose inbound paths cross an
	// injector.
	AffectedASNs map[int]bool

	// BlockedDomains are censored names (and all their subdomains).
	BlockedDomains map[string]bool

	// Eras are injection periods; outside every era the injector is
	// silent towards our vantage point.
	Eras []InjectionEra

	// WrongIPv4s is the pool of valid, routed but unrelated IPv4
	// addresses forged answers carry (the paper maps them to Facebook,
	// Microsoft, Dropbox and others).
	WrongIPv4s []ip6.IPv4

	// TeredoServers is the pool of server IPv4s embedded into forged
	// Teredo addresses.
	TeredoServers []ip6.IPv4

	seed uint64
}

// NewGFWModel builds an injector with the default forged-address pools.
func NewGFWModel(seed uint64) *GFWModel {
	g := &GFWModel{
		AffectedASNs:   make(map[int]bool),
		BlockedDomains: make(map[string]bool),
		seed:           seed,
	}
	// Synthetic stand-ins for the unrelated operators the paper names
	// (documentation/test ranges are avoided so they look "generally
	// routed" to the filter).
	g.WrongIPv4s = []ip6.IPv4{
		{31, 13, 94, 37},    // Facebook-like
		{157, 240, 17, 35},  // Facebook-like
		{13, 107, 21, 200},  // Microsoft-like
		{204, 79, 197, 200}, // Microsoft-like
		{162, 125, 2, 6},    // Dropbox-like
		{199, 16, 158, 9},   // Twitter-like
		{69, 63, 184, 14},   // Facebook-like
		{108, 160, 166, 9},  // Dropbox-like
	}
	g.TeredoServers = []ip6.IPv4{
		{65, 54, 227, 120}, // teredo.ipv6.microsoft.com-like
		{94, 245, 121, 253},
	}
	return g
}

// Blocked reports whether qname (or a parent domain) is censored.
func (g *GFWModel) Blocked(qname string) bool {
	qname = dnswire.NormalizeName(qname)
	for qname != "" {
		if g.BlockedDomains[qname] {
			return true
		}
		dot := -1
		for i := 0; i < len(qname); i++ {
			if qname[i] == '.' {
				dot = i
				break
			}
		}
		if dot < 0 {
			return false
		}
		qname = qname[dot+1:]
	}
	return false
}

// eraAt returns the active era at the given day, if any.
func (g *GFWModel) eraAt(day int) (InjectionEra, bool) {
	for _, e := range g.Eras {
		if day >= e.StartDay && day < e.EndDay {
			return e, true
		}
	}
	return InjectionEra{}, false
}

// ActiveAt reports whether any injection era covers the day.
func (g *GFWModel) ActiveAt(day int) bool {
	_, ok := g.eraAt(day)
	return ok
}

// injectInto returns the wire-format replies the injectors forge for a
// probe towards target, or nil when the injector stays silent: plan is
// the probe's DNS plan, which already settled that an era covers the day
// and the question is blocked (plan.inject), so only the target's AS is
// left to check. Multiple injectors on the path produce two or three
// answers, as the paper observed ("ZMap accumulated two or three
// responses for each scanned address"). Each reply is the plan's template
// with txid, a per-reply TTL and the forged address patched in, built
// from arena slots (nil arena falls back to heap allocation).
func (g *GFWModel) injectInto(arena *WireArena, plan *DNSPlan, target ip6.Addr, targetAS *AS, txid uint16) [][]byte {
	if targetAS == nil || !g.AffectedASNs[targetAS.ASN] {
		return nil
	}
	day := uint64(plan.day)
	n := 2 + int(rng.Mix(g.seed, target.Hi(), target.Lo(), day, 0x6f3)%2)
	out := arena.List()
	if out == nil {
		out = make([][]byte, 0, n)
	}
	tpl := plan.template()
	for i := 0; i < n; i++ {
		h := rng.Mix(g.seed, target.Hi(), target.Lo(), day, uint64(i), 0x9a1)
		wire := arena.Seal(append(arena.Wire(), tpl...))
		binary.BigEndian.PutUint16(wire, txid)
		binary.BigEndian.PutUint32(wire[plan.ttlOff:], 60+uint32(h%240))
		if plan.mode == InjectTeredo {
			server := g.TeredoServers[h%uint64(len(g.TeredoServers))]
			client := g.WrongIPv4s[(h>>8)%uint64(len(g.WrongIPv4s))]
			aaaa := ip6.TeredoAddr(server, client)
			copy(wire[plan.rdOff:], aaaa[:])
		} else {
			// An A record answering an AAAA question: the signature of
			// the first two events.
			a := g.WrongIPv4s[h%uint64(len(g.WrongIPv4s))]
			copy(wire[plan.rdOff:], a[:])
		}
		out = append(out, wire)
	}
	return arena.SealList(out)
}
