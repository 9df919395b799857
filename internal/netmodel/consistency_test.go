package netmodel

import (
	"testing"

	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
	"hitlist6/internal/rng"
)

// TestTrueRespondsMatchesProbe: the ground-truth oracle and the wire-level
// probe path must agree for every protocol on a mixed population.
func TestTrueRespondsMatchesProbe(t *testing.T) {
	net := testWorld(t)
	r := rng.NewStream(4, "consistency")

	var targets []ip6.Addr
	// Hosts, alias space, CN ghosts, unrouted.
	targets = append(targets,
		ip6.MustParseAddr("2001:4d00::80"),
		ip6.MustParseAddr("2001:4d00::53"),
		ip6.MustParseAddr("2001:4d00::f1"),
		ip6.MustParseAddr("3fff::1"),
	)
	for i := 0; i < 32; i++ {
		targets = append(targets, ip6.MustParsePrefix("2600:9000:1::/48").RandomAddr(r))
		targets = append(targets, ip6.MustParsePrefix("240e::/20").RandomAddr(r))
		targets = append(targets, ip6.MustParsePrefix("2001:4d00::/32").RandomAddr(r))
	}

	for _, day := range []int{10, 150, 350} {
		for _, target := range targets {
			for _, proto := range Protocols {
				truth := net.TrueResponds(target, proto, day)
				var probe Probe
				switch proto {
				case ICMP:
					probe = Probe{Kind: EchoRequest, Target: target, Day: day, Size: 8}
				case TCP80:
					probe = Probe{Kind: TCPSYN, Target: target, Day: day, Port: 80}
				case TCP443:
					probe = Probe{Kind: TCPSYN, Target: target, Day: day, Port: 443}
				case UDP443:
					probe = Probe{Kind: QUICInitial, Target: target, Day: day, Port: 443}
				case UDP53:
					probe = Probe{Kind: DNSQuery, Target: target, Day: day, Query: dnswire.NewQuery(9, "www.google.com", dnswire.TypeAAAA), TxID: 9}
				}
				resp := net.Probe(probe)
				measured := resp.Positive() && resp.Kind != RespRST
				if truth != measured {
					t.Fatalf("day %d target %v proto %v: truth=%v measured=%v (kind %d)",
						day, target, proto, truth, measured, resp.Kind)
				}
			}
		}
	}
}

// TestProbeConcurrencySafe hammers the network from many goroutines: the
// PMTU cache and counters are the only mutable state and must be safe.
func TestProbeConcurrencySafe(t *testing.T) {
	net := testWorld(t)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			r := rng.NewStream(uint64(g), "conc")
			p48 := ip6.MustParsePrefix("2600:9000:1::/48")
			for i := 0; i < 500; i++ {
				a := p48.RandomAddr(r)
				net.Probe(Probe{Kind: EchoRequest, Target: a, Day: 5, Size: 1300})
				net.Probe(Probe{Kind: PacketTooBig, Target: a, Day: 5, MTU: 1280})
				net.Probe(Probe{Kind: TCPSYN, Target: a, Day: 5, Port: 80})
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if net.ProbeCount() != 8*500*3 {
		t.Errorf("probe count %d, want %d", net.ProbeCount(), 8*500*3)
	}
}

// TestAliasRuleLifetime: rules activate and deactivate with their days
// (the Trafficforce event mechanics).
func TestAliasRuleLifetime(t *testing.T) {
	net := testWorld(t)
	as := net.AS.ByASN(64501)
	net.AddAlias(&AliasRule{
		Prefix: ip6.MustParsePrefix("2600:9000:42::/48"), AS: as,
		Protos: ProtoSetOf(ICMP), Backends: 1,
		BornDay: 100, DeathDay: 200, FP: FPBSD, MTU: 1500,
	})
	a := ip6.MustParsePrefix("2600:9000:42::/48").NthAddr(5)
	if net.TrueResponds(a, ICMP, 99) {
		t.Error("rule active before born day")
	}
	if !net.TrueResponds(a, ICMP, 150) {
		t.Error("rule inactive within lifetime")
	}
	if net.TrueResponds(a, ICMP, 200) {
		t.Error("rule active after death day")
	}
}

// TestHostOutageWindow verifies the comeback mechanics the Section 6
// unresponsive-pool experiment depends on.
func TestHostOutageWindow(t *testing.T) {
	h := &Host{
		Addr: ip6.MustParseAddr("2001:4d00::77"), Protos: ProtoSetOf(ICMP),
		BornDay: 0, DeathDay: Forever, UptimePermille: 1000,
		DownFrom: 100, DownTo: 180,
	}
	if !h.RespondsTo(ICMP, 50) {
		t.Error("down before outage")
	}
	if h.RespondsTo(ICMP, 100) || h.RespondsTo(ICMP, 179) {
		t.Error("up during outage")
	}
	if !h.RespondsTo(ICMP, 180) {
		t.Error("down after outage")
	}
}
