package netmodel

import (
	"bytes"
	"testing"

	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
	"hitlist6/internal/rng"
)

// referenceDNS is what a DNS probe towards target must draw, derived per
// probe from the GFW model and the target's host and built with the
// generic dnswire.Message.Encode: the injected replies first, then the
// target's own answer (only the refusing and open-resolver behaviours the
// plan test's world registers).
func referenceDNS(t *testing.T, n *Network, target ip6.Addr, query *dnswire.Message, txid uint16, day int) [][]byte {
	t.Helper()
	encode := func(m *dnswire.Message) []byte {
		wire, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	q := query.Questions[0]
	rd := query.Header.RecursionDesired
	var out [][]byte
	g := n.GFW
	if era, ok := g.eraAt(day); ok && g.Blocked(q.Name) && g.AffectedASNs[n.AS.Lookup(target).ASN] {
		count := 2 + int(rng.Mix(g.seed, target.Hi(), target.Lo(), uint64(day), 0x6f3)%2)
		for i := 0; i < count; i++ {
			h := rng.Mix(g.seed, target.Hi(), target.Lo(), uint64(day), uint64(i), 0x9a1)
			rr := dnswire.RR{Name: q.Name, TTL: 60 + uint32(h%240)}
			if era.Mode == InjectTeredo {
				rr.Type = dnswire.TypeAAAA
				rr.AAAA = ip6.TeredoAddr(g.TeredoServers[h%uint64(len(g.TeredoServers))],
					g.WrongIPv4s[(h>>8)%uint64(len(g.WrongIPv4s))])
			} else {
				rr.Type = dnswire.TypeA
				rr.A = g.WrongIPv4s[h%uint64(len(g.WrongIPv4s))]
			}
			out = append(out, encode(&dnswire.Message{
				Header:    dnswire.Header{ID: txid, Response: true, RecursionDesired: rd, RecursionAvailable: true},
				Questions: query.Questions,
				Answers:   []dnswire.RR{rr},
			}))
		}
	}
	if h, ok := n.Host(target); ok && h.RespondsTo(UDP53, day) {
		reply := &dnswire.Message{Header: dnswire.Header{ID: txid, Response: true, RecursionDesired: rd}, Questions: query.Questions}
		switch h.DNS {
		case DNSRefusing:
			reply.Header.RCode = dnswire.RCodeRefused
		case DNSOpenResolver:
			reply.Header.RecursionAvailable = true
			if q.Type == dnswire.TypeAAAA {
				reply.Answers = []dnswire.RR{{Name: q.Name, Type: dnswire.TypeAAAA, TTL: 300, AAAA: syntheticAAAA(q.Name)}}
			}
		default:
			t.Fatalf("reference: no answer for behaviour %v", h.DNS)
		}
		out = append(out, encode(reply))
	}
	return out
}

// TestDNSPlanMatchesEncode pins planned probes against the per-probe
// Encode reference, byte for byte: both injection modes, RD on and off,
// question names in other case or with a trailing dot, an unblocked
// name, days before, inside, between and after the eras, targets in
// affected and unaffected ASes with and without their own answer, and a
// multi-question query. Each probe goes out three ways — with no plan,
// with the shared plan for its query and day, and with a plan made for
// another day — and all three must equal the reference.
func TestDNSPlanMatchesEncode(t *testing.T) {
	net := testWorld(t)
	net.AddHost(&Host{Addr: ip6.MustParseAddr("240e::5301"), Protos: ProtoSetOf(UDP53),
		BornDay: 0, DeathDay: Forever, UptimePermille: 1000, DNS: DNSOpenResolver})
	net.Seal()
	targets := []ip6.Addr{
		ip6.MustParseAddr("240e::1234"),    // affected AS, no host
		ip6.MustParseAddr("240e::5301"),    // affected AS, open resolver
		ip6.MustParseAddr("2001:4d00::53"), // unaffected AS, refusing resolver
		ip6.MustParseAddr("2001:4d00::9"),  // unaffected AS, dark
	}
	var queries []*dnswire.Message
	for _, name := range []string{"www.google.com", "WWW.Google.COM", "maps.google.com.", "google.com", "our-own-domain.example"} {
		for _, rd := range []bool{true, false} {
			queries = append(queries, &dnswire.Message{
				Header:    dnswire.Header{RecursionDesired: rd},
				Questions: []dnswire.Question{{Name: name, Type: dnswire.TypeAAAA, Class: dnswire.ClassIN}},
			})
		}
	}
	multi := dnswire.NewQuery(0, "www.google.com", dnswire.TypeAAAA)
	multi.Questions = append(multi.Questions, dnswire.Question{Name: "example.org", Type: dnswire.TypeA, Class: dnswire.ClassIN})
	queries = append(queries, multi)

	r := rng.NewStream(7, "dns-plan-test")
	var injected, silent int
	for _, day := range []int{50, 100, 150, 199, 200, 350, 399, 400} {
		for _, query := range queries {
			shared := net.PlanDNS(query, day)
			stale := net.PlanDNS(query, day+1000)
			for _, target := range targets {
				for i := 0; i < 4; i++ {
					txid := uint16(r.Uint64())
					want := referenceDNS(t, net, target, query, txid, day)
					for _, plan := range []*DNSPlan{nil, &shared, &stale} {
						resp := net.Probe(Probe{Kind: DNSQuery, Target: target, Day: day, Query: query, TxID: txid, Plan: plan})
						if len(resp.DNS) != len(want) {
							t.Fatalf("day=%d q=%+v target=%v: %d replies, want %d", day, query.Questions, target, len(resp.DNS), len(want))
						}
						for j := range want {
							if !bytes.Equal(resp.DNS[j], want[j]) {
								t.Fatalf("day=%d q=%+v target=%v reply %d:\n got  %x\n want %x", day, query.Questions, target, j, resp.DNS[j], want[j])
							}
						}
						if resp.InjectedCount > 0 {
							injected++
						} else {
							silent++
						}
					}
				}
			}
		}
	}
	if injected == 0 || silent == 0 {
		t.Fatalf("%d injected and %d uninjected probes: the cases must cover both", injected, silent)
	}
}
