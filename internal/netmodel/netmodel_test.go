package netmodel

import (
	"strings"
	"testing"

	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
)

// testWorld builds a small deterministic network:
//   - AS64500 "PlainISP" with one always-up web host and one flaky host
//   - AS64501 "MiniCDN" with a /48 alias rule (4 backends)
//   - AS64502 "SoloAlias" with a /64 alias rule (1 backend)
//   - AS4134-like "CN-Backbone" behind the GFW
//   - AS64510 transit for traceroute paths
func testWorld(t testing.TB) *Network {
	t.Helper()
	ases := []*AS{
		{ASN: 64500, Name: "PlainISP", Country: "DE", Category: CatISP,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2001:4d00::/32")}, AnnouncedFrom: []int{0}},
		{ASN: 64501, Name: "MiniCDN", Country: "US", Category: CatCDN,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2600:9000::/32")}, AnnouncedFrom: []int{0}},
		{ASN: 64502, Name: "SoloAlias", Country: "US", Category: CatCloud,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2602:1111::/40")}, AnnouncedFrom: []int{0}},
		{ASN: 4134, Name: "CN-Backbone", Country: "CN", Category: CatISP, RouterRotationDays: 7,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("240e::/20")}, AnnouncedFrom: []int{0}},
		{ASN: 64510, Name: "Transit", Country: "US", Category: CatTransit,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2914::/24")}, AnnouncedFrom: []int{0}},
	}
	net := NewNetwork(1, NewASTable(ases))

	net.AddHost(&Host{
		Addr: ip6.MustParseAddr("2001:4d00::80"), Protos: ProtoSetOf(ICMP, TCP80, TCP443),
		BornDay: 0, DeathDay: Forever, UptimePermille: 1000, FP: FPLinux, MTU: 1500,
	})
	net.AddHost(&Host{
		Addr: ip6.MustParseAddr("2001:4d00::53"), Protos: ProtoSetOf(ICMP, UDP53),
		BornDay: 0, DeathDay: Forever, UptimePermille: 1000, FP: FPBSD, DNS: DNSRefusing, MTU: 1500,
	})
	net.AddHost(&Host{
		Addr: ip6.MustParseAddr("2001:4d00::f1"), Protos: ProtoSetOf(ICMP),
		BornDay: 0, DeathDay: Forever, UptimePermille: 500, FP: FPLinux, MTU: 1500,
	})
	net.AddAlias(&AliasRule{
		Prefix: ip6.MustParsePrefix("2600:9000:1::/48"), AS: ases[1],
		Protos: ProtoSetOf(ICMP, TCP80, TCP443, UDP443), Backends: 4,
		BornDay: 0, DeathDay: Forever, FP: FPLinuxLB, HostsDomains: true, MTU: 1500,
	})
	net.AddAlias(&AliasRule{
		Prefix: ip6.MustParsePrefix("2602:1111:0:1::/64"), AS: ases[2],
		Protos: ProtoSetOf(ICMP, TCP80), Backends: 1,
		BornDay: 0, DeathDay: Forever, FP: FPBSD, MTU: 1500,
	})

	gfw := NewGFWModel(1)
	gfw.AffectedASNs[4134] = true
	gfw.BlockedDomains["google.com"] = true
	gfw.Eras = []InjectionEra{
		{StartDay: 100, EndDay: 200, Mode: InjectA},
		{StartDay: 300, EndDay: 400, Mode: InjectTeredo},
	}
	net.GFW = gfw
	return net
}

func dnsProbe(t testing.TB, target ip6.Addr, day int, qname string) Probe {
	t.Helper()
	q := dnswire.NewQuery(0x4242, qname, dnswire.TypeAAAA)
	if _, err := q.Encode(); err != nil {
		t.Fatal(err)
	}
	return Probe{Kind: DNSQuery, Target: target, Day: day, Query: q, TxID: 0x4242}
}

func TestHostResponsiveness(t *testing.T) {
	net := testWorld(t)
	web := ip6.MustParseAddr("2001:4d00::80")

	r := net.Probe(Probe{Kind: EchoRequest, Target: web, Day: 10, Size: 64})
	if r.Kind != RespEchoReply || r.Fragmented {
		t.Errorf("echo: %+v", r)
	}
	r = net.Probe(Probe{Kind: TCPSYN, Target: web, Day: 10, Port: 80})
	if r.Kind != RespSynAck || !r.FP.Equal(FPLinux) {
		t.Errorf("syn80: %+v", r)
	}
	r = net.Probe(Probe{Kind: TCPSYN, Target: web, Day: 10, Port: 443})
	if r.Kind != RespSynAck {
		t.Errorf("syn443: %+v", r)
	}
	// No QUIC on this host.
	r = net.Probe(Probe{Kind: QUICInitial, Target: web, Day: 10, Port: 443})
	if r.Kind != RespNone {
		t.Errorf("quic: %+v", r)
	}
	// Unknown target: silence.
	r = net.Probe(Probe{Kind: EchoRequest, Target: ip6.MustParseAddr("2001:4d00::dead"), Day: 10})
	if r.Kind != RespNone {
		t.Errorf("unknown: %+v", r)
	}
	if !r.Positive() == false {
		_ = r // Positive is false for RespNone
	}
	if net.ProbeCount() == 0 {
		t.Error("probe counter not advancing")
	}
}

func TestTCPPortClosedRST(t *testing.T) {
	net := testWorld(t)
	dns := ip6.MustParseAddr("2001:4d00::53") // ICMP+UDP53, no TCP
	r := net.Probe(Probe{Kind: TCPSYN, Target: dns, Day: 10, Port: 80})
	if r.Kind != RespRST {
		t.Errorf("want RST from live host w/o port, got %+v", r)
	}
	if r.Positive() != true {
		t.Error("RST should still be a positive signal at wire level")
	}
}

func TestFlakyHostChurn(t *testing.T) {
	net := testWorld(t)
	flaky, _ := net.Host(ip6.MustParseAddr("2001:4d00::f1"))
	up, transitions := 0, 0
	prev := false
	const days = 1000
	for d := 0; d < days; d++ {
		cur := flaky.RespondsTo(ICMP, d)
		if cur {
			up++
		}
		if d > 0 && cur != prev {
			transitions++
		}
		prev = cur
	}
	frac := float64(up) / days
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("uptime fraction %v, want ~0.5", frac)
	}
	if transitions == 0 {
		t.Error("no churn at all")
	}
	// State must be an epoch function: consecutive days mostly agree.
	if transitions > days/availEpochDays*3 {
		t.Errorf("too many transitions (%d) for epoch length %d", transitions, availEpochDays)
	}
	// Determinism.
	if flaky.RespondsTo(ICMP, 123) != flaky.RespondsTo(ICMP, 123) {
		t.Error("non-deterministic draw")
	}
}

func TestHostLifetime(t *testing.T) {
	net := testWorld(t)
	net.AddHost(&Host{
		Addr: ip6.MustParseAddr("2001:4d00::b0"), Protos: ProtoSetOf(ICMP),
		BornDay: 50, DeathDay: 60, UptimePermille: 1000,
	})
	h, _ := net.Host(ip6.MustParseAddr("2001:4d00::b0"))
	if h.RespondsTo(ICMP, 49) || !h.RespondsTo(ICMP, 50) || !h.RespondsTo(ICMP, 59) || h.RespondsTo(ICMP, 60) {
		t.Error("lifetime bounds wrong")
	}
}

func TestAliasFullyResponsive(t *testing.T) {
	net := testWorld(t)
	p := ip6.MustParsePrefix("2600:9000:1::/48")
	// Every random address inside answers ICMP/TCP80/TCP443/UDP443.
	for i := uint64(0); i < 32; i++ {
		a := p.NthAddr(i*7919 + 1)
		for _, proto := range []Protocol{ICMP, TCP80, TCP443, UDP443} {
			if !net.TrueResponds(a, proto, 10) {
				t.Fatalf("alias addr %v not responsive to %v", a, proto)
			}
		}
		if net.TrueResponds(a, UDP53, 10) {
			t.Fatalf("alias addr %v unexpectedly answers DNS", a)
		}
	}
	// Uniform fingerprints across the fleet (no jitter configured).
	a1 := p.NthAddr(1)
	a2 := p.NthAddr(999999)
	r1 := net.Probe(Probe{Kind: TCPSYN, Target: a1, Day: 10, Port: 80})
	r2 := net.Probe(Probe{Kind: TCPSYN, Target: a2, Day: 10, Port: 80})
	if !r1.FP.Equal(r2.FP) {
		t.Error("fleet fingerprints differ without jitter")
	}
	// Outside the alias prefix: silence.
	if net.TrueResponds(ip6.MustParseAddr("2600:9000:2::1"), ICMP, 10) {
		t.Error("address outside alias rule responded")
	}
}

func TestAliasWindowJitter(t *testing.T) {
	net := testWorld(t)
	as := net.AS.ByASN(64501)
	net.AddAlias(&AliasRule{
		Prefix: ip6.MustParsePrefix("2600:9000:2::/48"), AS: as,
		Protos: ProtoSetOf(TCP80), Backends: 8, WindowJitter: true,
		BornDay: 0, DeathDay: Forever, FP: FPLinuxLB, MTU: 1500,
	})
	p := ip6.MustParsePrefix("2600:9000:2::/48")
	seen := map[uint16]bool{}
	for i := uint64(0); i < 64; i++ {
		r := net.Probe(Probe{Kind: TCPSYN, Target: p.NthAddr(i * 104729), Day: 10, Port: 80})
		if r.Kind != RespSynAck {
			t.Fatalf("no synack: %+v", r)
		}
		seen[r.FP.Window] = true
		base := r.FP
		base.Window = 0
		want := FPLinuxLB
		want.Window = 0
		if base != want {
			t.Fatal("jitter must only change the window")
		}
	}
	if len(seen) < 2 {
		t.Errorf("window jitter produced %d distinct windows", len(seen))
	}
}

func TestTooBigTrickSharedCache(t *testing.T) {
	net := testWorld(t)
	solo := ip6.MustParsePrefix("2602:1111:0:1::/64")
	day := 42

	// Eight addresses under test, echo 1300 B: unfragmented.
	var addrs []ip6.Addr
	for i := uint64(0); i < 8; i++ {
		addrs = append(addrs, solo.NthAddr(i*7919+3))
	}
	for _, a := range addrs {
		r := net.Probe(Probe{Kind: EchoRequest, Target: a, Day: day, Size: 1300})
		if r.Kind != RespEchoReply || r.Fragmented {
			t.Fatalf("pre-PTB echo: %+v", r)
		}
	}
	// PTB to the first address only.
	net.Probe(Probe{Kind: PacketTooBig, Target: addrs[0], Day: day, MTU: 1280})
	// Single-host alias: every other address now fragments too.
	for _, a := range addrs {
		r := net.Probe(Probe{Kind: EchoRequest, Target: a, Day: day, Size: 1300})
		if !r.Fragmented {
			t.Fatalf("single-host alias did not share PMTU for %v", a)
		}
	}

	// CDN fleet (4 backends): only the poisoned backend fragments.
	net.ResetPMTU()
	cdn := ip6.MustParsePrefix("2600:9000:1::/48")
	rule, _ := net.AliasRuleFor(cdn.NthAddr(1), day)
	var poisoned, other ip6.Addr
	poisoned = cdn.NthAddr(1)
	for i := uint64(2); ; i++ {
		a := cdn.NthAddr(i)
		if rule.BackendOf(a) != rule.BackendOf(poisoned) {
			other = a
			break
		}
	}
	var sameBackend ip6.Addr
	for i := uint64(2); ; i++ {
		a := cdn.NthAddr(i)
		if a != poisoned && rule.BackendOf(a) == rule.BackendOf(poisoned) {
			sameBackend = a
			break
		}
	}
	net.Probe(Probe{Kind: PacketTooBig, Target: poisoned, Day: day, MTU: 1280})
	if r := net.Probe(Probe{Kind: EchoRequest, Target: sameBackend, Day: day, Size: 1300}); !r.Fragmented {
		t.Error("same backend did not share PMTU")
	}
	if r := net.Probe(Probe{Kind: EchoRequest, Target: other, Day: day, Size: 1300}); r.Fragmented {
		t.Error("different backend shared PMTU")
	}

	// The cache expires after pmtuHoldDays.
	if r := net.Probe(Probe{Kind: EchoRequest, Target: sameBackend, Day: day + pmtuHoldDays + 1, Size: 1300}); r.Fragmented {
		t.Error("PMTU cache did not expire")
	}
}

// TestDNSProbeWithoutQuery: a DNS probe's question travels in Query.
// One with no Query, or with a question-less one, draws nothing — not
// even an injection from the path or a DNS host's own answer.
func TestDNSProbeWithoutQuery(t *testing.T) {
	net := testWorld(t)
	for _, target := range []ip6.Addr{ip6.MustParseAddr("240e::1234"), ip6.MustParseAddr("2001:4d00::53")} {
		if r := net.Probe(dnsProbe(t, target, 150, "www.google.com")); r.Kind != RespDNS {
			t.Fatalf("%v: a full probe draws %+v, want a DNS answer", target, r)
		}
		for _, q := range []*dnswire.Message{nil, {}} {
			if r := net.Probe(Probe{Kind: DNSQuery, Target: target, Day: 150, Query: q, TxID: 1}); r.Kind != RespNone || len(r.DNS) != 0 {
				t.Errorf("%v: probe with query %+v draws %+v", target, q, r)
			}
		}
	}
}

func TestGFWInjection(t *testing.T) {
	net := testWorld(t)
	cnTarget := ip6.MustParseAddr("240e::1234") // not a registered host

	// Outside any era: silence.
	r := net.Probe(dnsProbe(t, cnTarget, 50, "www.google.com"))
	if r.Kind != RespNone {
		t.Fatalf("pre-era injection: %+v", r)
	}

	// Era 1: A-record injection, multiple answers.
	r = net.Probe(dnsProbe(t, cnTarget, 150, "www.google.com"))
	if r.Kind != RespDNS {
		t.Fatalf("era1 no injection: %+v", r)
	}
	if len(r.DNS) < 2 || len(r.DNS) > 3 {
		t.Errorf("era1 responses: %d, want 2-3", len(r.DNS))
	}
	if r.InjectedCount != len(r.DNS) {
		t.Errorf("ground truth count mismatch: %d vs %d", r.InjectedCount, len(r.DNS))
	}
	for _, wire := range r.DNS {
		m, err := dnswire.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if m.Header.ID != 0x4242 {
			t.Error("injection did not echo transaction ID")
		}
		if len(m.Answers) != 1 || m.Answers[0].Type != dnswire.TypeA {
			t.Errorf("era1 answer: %+v", m.Answers)
		}
	}

	// Era 2: Teredo AAAA injection.
	r = net.Probe(dnsProbe(t, cnTarget, 350, "www.google.com"))
	if r.Kind != RespDNS {
		t.Fatal("era2 no injection")
	}
	m, err := dnswire.Decode(r.DNS[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 || m.Answers[0].Type != dnswire.TypeAAAA || !m.Answers[0].AAAA.IsTeredo() {
		t.Errorf("era2 answer not Teredo: %+v", m.Answers)
	}

	// Unblocked domain: no response at all (the paper's own-domain test).
	r = net.Probe(dnsProbe(t, cnTarget, 150, "our-own-domain.example"))
	if r.Kind != RespNone {
		t.Errorf("unblocked domain drew response: %+v", r)
	}

	// Subdomains of blocked domains are blocked.
	if !net.GFW.Blocked("maps.google.com") || net.GFW.Blocked("example.org") {
		t.Error("Blocked() subdomain logic wrong")
	}

	// Non-Chinese target: no injection even in-era.
	r = net.Probe(dnsProbe(t, ip6.MustParseAddr("2001:4d00::9"), 150, "www.google.com"))
	if r.Kind != RespNone {
		t.Errorf("injection outside affected AS: %+v", r)
	}

	// TrueResponds reflects injection-driven UDP/53 "responsiveness".
	if !net.TrueResponds(cnTarget, UDP53, 150) {
		t.Error("TrueResponds misses GFW era")
	}
	if net.TrueResponds(cnTarget, UDP53, 50) {
		t.Error("TrueResponds wrong outside era")
	}
}

func TestDNSBehaviors(t *testing.T) {
	net := testWorld(t)
	mk := func(addr string, b DNSBehavior) ip6.Addr {
		a := ip6.MustParseAddr(addr)
		net.AddHost(&Host{Addr: a, Protos: ProtoSetOf(UDP53), BornDay: 0, DeathDay: Forever,
			UptimePermille: 1000, DNS: b})
		return a
	}
	refusing := ip6.MustParseAddr("2001:4d00::53")
	open := mk("2001:4d00::5301", DNSOpenResolver)
	referral := mk("2001:4d00::5302", DNSReferral)
	proxy := mk("2001:4d00::5303", DNSProxy)
	broken := mk("2001:4d00::5304", DNSBroken)

	decode1 := func(r Response) *dnswire.Message {
		t.Helper()
		if r.Kind != RespDNS || len(r.DNS) != 1 {
			t.Fatalf("bad DNS response: %+v", r)
		}
		m, err := dnswire.Decode(r.DNS[0])
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Refusing: REFUSED status.
	m := decode1(net.Probe(dnsProbe(t, refusing, 10, "abc123.hitlist-exp.example")))
	if m.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("refusing rcode: %v", m.Header.RCode)
	}

	// Open resolver: correct AAAA and a query logged at our NS from the
	// same source.
	m = decode1(net.Probe(dnsProbe(t, open, 10, "abc124.hitlist-exp.example")))
	if len(m.Answers) != 1 || m.Answers[0].AAAA != syntheticAAAA("abc124.hitlist-exp.example") {
		t.Errorf("open resolver answer: %+v", m.Answers)
	}
	log := net.NSLogSnapshot()
	if len(log) != 1 || log[0].Source != open || log[0].QName != "abc124.hitlist-exp.example" {
		t.Errorf("NS log: %+v", log)
	}

	// Referral: NS records for the root in authority.
	m = decode1(net.Probe(dnsProbe(t, referral, 10, "abc125.hitlist-exp.example")))
	if len(m.Authority) == 0 || m.Authority[0].Type != dnswire.TypeNS ||
		!strings.Contains(m.Authority[0].Target, "root-servers") {
		t.Errorf("referral authority: %+v", m.Authority)
	}

	// Proxy: correct answer, NS-log source differs from probed target.
	m = decode1(net.Probe(dnsProbe(t, proxy, 10, "abc126.hitlist-exp.example")))
	if len(m.Answers) != 1 {
		t.Fatalf("proxy answers: %+v", m.Answers)
	}
	log = net.NSLogSnapshot()
	if len(log) != 1 || log[0].Source == proxy {
		t.Errorf("proxy NS log should use different egress: %+v", log)
	}

	// Broken: NOTIMP or localhost referral.
	m = decode1(net.Probe(dnsProbe(t, broken, 10, "abc127.hitlist-exp.example")))
	junk := m.Header.RCode == dnswire.RCodeNotImp ||
		(len(m.Answers) == 1 && m.Answers[0].Target == "localhost")
	if !junk {
		t.Errorf("broken behaviour not junk-like: %+v", m)
	}

	// Queries outside our zone never reach our NS.
	net.Probe(dnsProbe(t, open, 10, "www.example.org"))
	if log := net.NSLogSnapshot(); len(log) != 0 {
		t.Errorf("foreign query logged at our NS: %+v", log)
	}
}

func TestTraceroute(t *testing.T) {
	net := testWorld(t)
	web := ip6.MustParseAddr("2001:4d00::80")
	hops := net.Traceroute(web, 10, 32)
	if len(hops) == 0 {
		t.Fatal("no hops")
	}
	last := hops[len(hops)-1]
	if last.Addr != web {
		t.Errorf("responsive target must be final hop: %v", last.Addr)
	}
	for i := 1; i < len(hops); i++ {
		if hops[i].TTL <= hops[i-1].TTL {
			t.Fatal("hops out of TTL order")
		}
	}
	// Determinism within a day.
	hops2 := net.Traceroute(web, 10, 32)
	if len(hops2) != len(hops) {
		t.Error("traceroute not deterministic")
	}

	// Unresponsive Chinese target: rotating router IIDs change across
	// rotation periods.
	cn := ip6.MustParseAddr("240e::abcd")
	h1 := net.Traceroute(cn, 0, 32)
	h2 := net.Traceroute(cn, 70, 32)
	if len(h1) == 0 || len(h2) == 0 {
		t.Fatal("no hops towards CN target")
	}
	cnAS := net.AS.ByASN(4134)
	addrOf := func(hops []Hop) (ip6.Addr, bool) {
		for _, h := range hops {
			if as := net.AS.Lookup(h.Addr); as == cnAS {
				return h.Addr, true
			}
		}
		return ip6.Addr{}, false
	}
	a1, ok1 := addrOf(h1)
	a2, ok2 := addrOf(h2)
	if ok1 && ok2 && a1 == a2 {
		t.Error("rotating router IID did not rotate across periods")
	}
}

func TestASTable(t *testing.T) {
	net := testWorld(t)
	as := net.AS.Lookup(ip6.MustParseAddr("2600:9000:1::5"))
	if as == nil || as.ASN != 64501 {
		t.Errorf("ASOf: %+v", as)
	}
	if net.AS.Lookup(ip6.MustParseAddr("3fff::1")) != nil {
		t.Error("unrouted address attributed")
	}
	if net.AS.NumASes() != 5 {
		t.Errorf("NumASes: %d", net.AS.NumASes())
	}
	if net.AS.NumPrefixes() != 5 {
		t.Errorf("NumPrefixes: %d", net.AS.NumPrefixes())
	}
	all := net.AS.All()
	if len(all) != 5 || all[0].ASN > all[1].ASN {
		t.Error("All not sorted")
	}
	p, as2, ok := net.AS.LookupPrefix(ip6.MustParseAddr("2914::1"))
	if !ok || as2.ASN != 64510 || p.Bits() != 24 {
		t.Errorf("LookupPrefix: %v %v %v", p, as2, ok)
	}
}

func TestProtoSet(t *testing.T) {
	s := ProtoSetOf(ICMP, UDP53)
	if !s.Has(ICMP) || !s.Has(UDP53) || s.Has(TCP80) {
		t.Error("membership")
	}
	if s.Count() != 2 {
		t.Errorf("Count: %d", s.Count())
	}
	s = s.With(TCP80).Without(ICMP)
	if s.Has(ICMP) || !s.Has(TCP80) {
		t.Error("With/Without")
	}
	if ProtoSet(0).String() != "none" || !ProtoSet(0).Empty() {
		t.Error("empty set")
	}
	if AllProtocols.Count() != 5 {
		t.Error("AllProtocols")
	}
	if s.String() == "" {
		t.Error("String")
	}
	if ICMP.String() != "ICMP" || TCP80.String() != "TCP/80" || UDP443.String() != "UDP/443" {
		t.Error("Protocol.String")
	}
	p, err := ParseProtocol("TCP/443")
	if err != nil || p != TCP443 {
		t.Error("ParseProtocol")
	}
	if _, err := ParseProtocol("SCTP"); err == nil {
		t.Error("ParseProtocol accepted junk")
	}
}

func TestFingerprintHelpers(t *testing.T) {
	a := FPLinux
	b := FPLinux
	b.Window = 1234
	if a.Equal(b) {
		t.Error("Equal ignores window")
	}
	if !a.EqualIgnoringWindow(b) {
		t.Error("EqualIgnoringWindow fails")
	}
	if RoundITTL(58) != 64 || RoundITTL(120) != 128 || RoundITTL(250) != 255 || RoundITTL(30) != 32 {
		t.Error("RoundITTL")
	}
}

func TestTimeHelpers(t *testing.T) {
	if Day2018 != 0 {
		t.Errorf("Day2018 = %d", Day2018)
	}
	if DateString(0) != "2018-07-01" {
		t.Errorf("DateString(0) = %s", DateString(0))
	}
	if DayOf(2018, 7, 2) != 1 {
		t.Error("DayOf")
	}
	if got := DateString(Day2022); got != "2022-04-07" {
		t.Errorf("Day2022 = %s", got)
	}
	if !DateOf(Day2021).Equal(DateOf(DayOf(2021, 4, 2))) {
		t.Error("DateOf")
	}
}

func TestCategoryString(t *testing.T) {
	for c := CatISP; c <= CatEnterprise; c++ {
		if c.String() == "" || c.String()[0] == 'C' {
			t.Errorf("Category(%d).String() = %q", c, c.String())
		}
	}
}

func BenchmarkProbeEcho(b *testing.B) {
	net := testWorld(b)
	web := ip6.MustParseAddr("2001:4d00::80")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Probe(Probe{Kind: EchoRequest, Target: web, Day: 10, Size: 64})
	}
}

func BenchmarkProbeDNSInjected(b *testing.B) {
	net := testWorld(b)
	p := dnsProbe(b, ip6.MustParseAddr("240e::1234"), 150, "www.google.com")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Probe(p)
	}
}

func BenchmarkTraceroute(b *testing.B) {
	net := testWorld(b)
	web := ip6.MustParseAddr("2001:4d00::80")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Traceroute(web, 10, 32)
	}
}
