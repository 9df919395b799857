package scan

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
)

// testNet builds a miniature world: a reliable web host, a DNS host, an
// aliased /64, and a GFW-affected Chinese prefix.
func testNet(t testing.TB) *netmodel.Network {
	t.Helper()
	ases := []*netmodel.AS{
		{ASN: 100, Name: "Web", Country: "DE", Category: netmodel.CatCloud,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2001:100::/32")}, AnnouncedFrom: []int{0}},
		{ASN: 4134, Name: "CN", Country: "CN", Category: netmodel.CatISP,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("240e::/20")}, AnnouncedFrom: []int{0}},
	}
	n := netmodel.NewNetwork(7, netmodel.NewASTable(ases))
	n.AddHost(&netmodel.Host{
		Addr: ip6.MustParseAddr("2001:100::80"), Protos: netmodel.ProtoSetOf(netmodel.ICMP, netmodel.TCP80, netmodel.TCP443, netmodel.UDP443),
		BornDay: 0, DeathDay: netmodel.Forever, UptimePermille: 1000, FP: netmodel.FPLinux, MTU: 1500,
	})
	n.AddHost(&netmodel.Host{
		Addr: ip6.MustParseAddr("2001:100::53"), Protos: netmodel.ProtoSetOf(netmodel.UDP53),
		BornDay: 0, DeathDay: netmodel.Forever, UptimePermille: 1000, DNS: netmodel.DNSRefusing, MTU: 1500,
	})
	n.AddAlias(&netmodel.AliasRule{
		Prefix: ip6.MustParsePrefix("2001:100:a::/64"), AS: ases[0],
		Protos:  netmodel.ProtoSetOf(netmodel.ICMP, netmodel.TCP80),
		BornDay: 0, DeathDay: netmodel.Forever, Backends: 1, FP: netmodel.FPBSD, MTU: 1500,
	})
	g := netmodel.NewGFWModel(7)
	g.AffectedASNs[4134] = true
	g.BlockedDomains["google.com"] = true
	g.Eras = []netmodel.InjectionEra{{StartDay: 0, EndDay: 10000, Mode: netmodel.InjectTeredo}}
	n.GFW = g
	return n
}

func allProtos() []netmodel.Protocol {
	return []netmodel.Protocol{netmodel.ICMP, netmodel.TCP443, netmodel.TCP80, netmodel.UDP443, netmodel.UDP53}
}

// scanAll streams targets through s and returns every result, DNS
// payloads deep-copied out of the recycled batch arenas, in canonical
// shard order (probe order within a shard) — the same slice for any
// worker count or batch size.
func scanAll(ctx context.Context, s *Scanner, targets []ip6.Addr, protos []netmodel.Protocol, day int) ([]Result, Stats, error) {
	var shards [ip6.AddrShards][]Result
	st, err := s.StreamFrom(ctx, SliceSource(targets), protos, day, func(b *Batch) error {
		for _, r := range b.Results {
			if len(r.DNS) > 0 {
				dns := make([][]byte, len(r.DNS))
				for j, w := range r.DNS {
					dns[j] = append([]byte(nil), w...)
				}
				r.DNS = dns
			}
			shards[b.Shard] = append(shards[b.Shard], r)
		}
		return nil
	})
	var out []Result
	for _, sh := range shards {
		out = append(out, sh...)
	}
	return out, st, err
}

func TestScanBasic(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(1)
	cfg.LossRate = 0
	s := New(n, cfg)
	targets := []ip6.Addr{
		ip6.MustParseAddr("2001:100::80"),
		ip6.MustParseAddr("2001:100::53"),
		ip6.MustParseAddr("2001:100::dead"),
	}
	results, stats, err := scanAll(context.Background(), s, targets, allProtos(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(targets)*5 {
		t.Fatalf("results: %d", len(results))
	}
	byKey := map[string]Result{}
	for _, r := range results {
		byKey[r.Target.String()+"/"+r.Proto.String()] = r
	}
	if !byKey["2001:100::80/ICMP"].Success || !byKey["2001:100::80/TCP/80"].Success {
		t.Error("web host not responsive")
	}
	if !byKey["2001:100::80/UDP/443"].Success {
		t.Error("QUIC not responsive")
	}
	if byKey["2001:100::80/UDP/53"].Success {
		t.Error("web host should not answer DNS")
	}
	if !byKey["2001:100::53/UDP/53"].Success {
		t.Error("DNS host not responsive")
	}
	if byKey["2001:100::dead/ICMP"].Success {
		t.Error("ghost responded")
	}
	if stats.ProbesSent == 0 || stats.Successes == 0 || stats.EstimatedSeconds <= 0 {
		t.Errorf("stats: %+v", stats)
	}
	// Each target's results are consecutive, in protocol order.
	for i, r := range results {
		if r.Proto != allProtos()[i%5] || r.Target != results[i-i%5].Target {
			t.Fatalf("result %d is %v %v: order broken", i, r.Target, r.Proto)
		}
	}
}

func TestScanDeterminism(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(3)
	cfg.LossRate = 0.2
	cfg.Retries = 0
	s := New(n, cfg)
	var targets []ip6.Addr
	p := ip6.MustParsePrefix("2001:100:a::/64")
	for i := uint64(0); i < 200; i++ {
		targets = append(targets, p.NthAddr(i))
	}
	r1, _, _ := scanAll(context.Background(), s, targets, []netmodel.Protocol{netmodel.ICMP}, 5)
	r2, _, _ := scanAll(context.Background(), s, targets, []netmodel.Protocol{netmodel.ICMP}, 5)
	if len(r1) != len(targets) || len(r2) != len(targets) {
		t.Fatalf("results: %d and %d, want %d", len(r1), len(r2), len(targets))
	}
	for i := range r1 {
		if r1[i].Success != r2[i].Success {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func TestLossAndRetries(t *testing.T) {
	n := testNet(t)
	p := ip6.MustParsePrefix("2001:100:a::/64") // fully responsive
	var targets []ip6.Addr
	for i := uint64(0); i < 2000; i++ {
		targets = append(targets, p.NthAddr(i))
	}

	count := func(loss float64, retries int) int {
		cfg := DefaultConfig(11)
		cfg.LossRate = loss
		cfg.Retries = retries
		s := New(n, cfg)
		sets, _, err := s.StreamResponsiveFrom(context.Background(), SliceSource(targets), []netmodel.Protocol{netmodel.ICMP}, 5)
		if err != nil {
			t.Fatal(err)
		}
		return sets[netmodel.ICMP].Len()
	}

	noLoss := count(0, 0)
	if noLoss != len(targets) {
		t.Fatalf("lossless scan missed targets: %d/%d", noLoss, len(targets))
	}
	lossy := count(0.3, 0)
	if lossy >= noLoss || lossy < 1000 {
		t.Errorf("lossy scan: %d", lossy)
	}
	retried := count(0.3, 2)
	if retried <= lossy {
		t.Errorf("retries did not help: %d vs %d", retried, lossy)
	}
	// ~30% loss with 2 retries → miss rate ~2.7%.
	if float64(retried) < 0.93*float64(len(targets)) {
		t.Errorf("retried recovery too low: %d/%d", retried, len(targets))
	}
}

// TestLossDrawMatchesMix pins the per-attempt loss draw to its formula,
// Mix(seed, hi, lo, proto, day, attempt, 0x1055) against the threshold:
// at a fully responsive prefix, each probe succeeds on the first attempt
// whose draw is not below it, and with none it comes back silent after
// every retry.
func TestLossDrawMatchesMix(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(11)
	cfg.LossRate, cfg.Retries = 0.3, 2
	s := New(n, cfg)
	th := uint64(cfg.LossRate * (1 << 32))
	p := ip6.MustParsePrefix("2001:100:a::/64")
	const day = 5
	lost := 0
	for i := uint64(0); i < 2000; i++ {
		a := p.NthAddr(i)
		want := 0 // attempts until the first draw at or above the threshold
		for want <= cfg.Retries && rng.Mix(cfg.Seed, a.Hi(), a.Lo(), uint64(netmodel.ICMP), day, uint64(want), 0x1055)&0xffffffff < th {
			want++
		}
		res := s.ProbeOne(a, netmodel.ICMP, day)
		switch {
		case want > cfg.Retries:
			lost++
			if res.Kind != netmodel.RespNone || int(res.Attempts) != 1+cfg.Retries {
				t.Fatalf("%v: every draw lost, got kind %v after %d attempts", a, res.Kind, res.Attempts)
			}
		case !res.Success || int(res.Attempts) != want+1:
			t.Fatalf("%v: want success on attempt %d, got success=%v after %d", a, want+1, res.Success, res.Attempts)
		}
	}
	if lost == 0 {
		t.Error("no target lost every attempt: the all-lost branch is not exercised")
	}
}

func TestScanContextCancel(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(1)
	cfg.Workers = 1
	s := New(n, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var targets []ip6.Addr
	p := ip6.MustParsePrefix("2001:100:a::/64")
	for i := uint64(0); i < 10000; i++ {
		targets = append(targets, p.NthAddr(i))
	}
	_, _, err := scanAll(ctx, s, targets, allProtos(), 1)
	if err == nil {
		t.Error("cancelled scan returned nil error")
	}
}

func TestDNSProbeCarriesInjection(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(1)
	cfg.LossRate = 0
	s := New(n, cfg)
	r := s.ProbeOne(ip6.MustParseAddr("240e::1"), netmodel.UDP53, 5)
	if !r.Success {
		t.Fatal("GFW-injected probe not successful (ZMap semantics)")
	}
	if len(r.DNS) < 2 {
		t.Errorf("injection responses: %d", len(r.DNS))
	}
	if r.InjectedTruth != len(r.DNS) {
		t.Errorf("injected truth: %d", r.InjectedTruth)
	}
	m, err := dnswire.Decode(r.DNS[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 || !m.Answers[0].AAAA.IsTeredo() {
		t.Error("expected Teredo answer")
	}
}

func TestQNameFor(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(1)
	cfg.LossRate = 0
	cfg.QNameFor = func(a ip6.Addr) string {
		return fmt.Sprintf("%s.hitlist-exp.example", a.FullHex()[:12])
	}
	s := New(n, cfg)
	// Unique qname is NOT blocked → no GFW injection.
	r := s.ProbeOne(ip6.MustParseAddr("240e::1"), netmodel.UDP53, 5)
	if r.Success {
		t.Error("unique-subdomain probe should not be injected")
	}
	// The refusing DNS host still answers.
	r = s.ProbeOne(ip6.MustParseAddr("2001:100::53"), netmodel.UDP53, 5)
	if !r.Success {
		t.Error("DNS host must answer unique subdomain (with REFUSED)")
	}
}

func TestCSVRoundtrip(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(1)
	cfg.LossRate = 0
	s := New(n, cfg)
	targets := []ip6.Addr{
		ip6.MustParseAddr("2001:100::80"),
		ip6.MustParseAddr("240e::1"),
		ip6.MustParseAddr("2001:100::53"),
	}
	results, _, err := scanAll(context.Background(), s, targets, allProtos(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(results) {
		t.Fatalf("rows: %d vs %d", len(recs), len(results))
	}
	// Find the injected row: Teredo answers must round-trip.
	found := false
	for _, rec := range recs {
		if rec.Addr == ip6.MustParseAddr("240e::1") && rec.Proto == netmodel.UDP53 {
			found = true
			if !rec.Success || rec.Responses < 2 {
				t.Errorf("injected row: %+v", rec)
			}
			if len(rec.Answers) < 2 || rec.Answers[0].Type != dnswire.TypeAAAA {
				t.Errorf("answers: %+v", rec.Answers)
			}
			a, err := ip6.ParseAddr(rec.Answers[0].Value)
			if err != nil || !a.IsTeredo() {
				t.Errorf("answer value: %q", rec.Answers[0].Value)
			}
		}
		if rec.Addr == ip6.MustParseAddr("2001:100::53") && rec.Proto == netmodel.UDP53 {
			if rec.RCode != "REFUSED" {
				t.Errorf("rcode: %q", rec.RCode)
			}
		}
	}
	if !found {
		t.Error("injected row missing")
	}
}

func TestReadAllRejectsGarbage(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader(nil)); err == nil {
		t.Error("empty CSV accepted")
	}
	bad := "saddr,protocol,day,success,kind,num_responses,rcode,answers\nnot-an-addr,ICMP,1,true,1,0,,\n"
	if _, err := ReadAll(bytes.NewReader([]byte(bad))); err == nil {
		t.Error("bad address accepted")
	}
	bad2 := "x,y\n"
	if _, err := ReadAll(bytes.NewReader([]byte(bad2))); err == nil {
		t.Error("bad header accepted")
	}
}

func BenchmarkScanICMP(b *testing.B) {
	n := testNet(b)
	cfg := DefaultConfig(1)
	s := New(n, cfg)
	p := ip6.MustParsePrefix("2001:100:a::/64")
	targets := make([]ip6.Addr, 1000)
	for i := range targets {
		targets[i] = p.NthAddr(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.StreamFrom(context.Background(), SliceSource(targets), []netmodel.Protocol{netmodel.ICMP}, 1, func(*Batch) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProbeOneDNS(b *testing.B) {
	n := testNet(b)
	s := New(n, DefaultConfig(1))
	target := ip6.MustParseAddr("240e::1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ProbeOne(target, netmodel.UDP53, 1)
	}
}
