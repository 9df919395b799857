package gfw

import (
	"testing"

	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/scan"
)

func wireAAAAQueryReply(t *testing.T, rrs ...dnswire.RR) []byte {
	t.Helper()
	q := dnswire.NewQuery(1, "www.google.com", dnswire.TypeAAAA)
	r := q.Reply()
	r.Answers = rrs
	w, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestClassifyAForAAAA(t *testing.T) {
	msg := wireAAAAQueryReply(t, dnswire.RR{Name: "www.google.com", Type: dnswire.TypeA, TTL: 60, A: ip6.IPv4{31, 13, 94, 37}})
	c := ClassifyMessages([][]byte{msg})
	if !c.AForAAAA || c.Teredo || c.MultiResponse || !c.Injected() {
		t.Errorf("classification: %+v", c)
	}
}

func TestClassifyTeredo(t *testing.T) {
	teredo := ip6.TeredoAddr(ip6.IPv4{65, 54, 227, 120}, ip6.IPv4{31, 13, 94, 37})
	msg := wireAAAAQueryReply(t, dnswire.RR{Name: "www.google.com", Type: dnswire.TypeAAAA, TTL: 60, AAAA: teredo})
	c := ClassifyMessages([][]byte{msg, msg})
	if !c.Teredo || !c.MultiResponse || c.Responses != 2 || !c.Injected() {
		t.Errorf("classification: %+v", c)
	}
}

func TestClassifyLegitimate(t *testing.T) {
	// A real AAAA answer (non-Teredo) must not be flagged, even alongside
	// an A record (dual-stack resolvers may add one).
	msg := wireAAAAQueryReply(t,
		dnswire.RR{Name: "www.google.com", Type: dnswire.TypeAAAA, TTL: 60, AAAA: ip6.MustParseAddr("2607:f8b0::2004")},
		dnswire.RR{Name: "www.google.com", Type: dnswire.TypeA, TTL: 60, A: ip6.IPv4{142, 250, 1, 1}},
	)
	c := ClassifyMessages([][]byte{msg})
	if c.Injected() {
		t.Errorf("legit response flagged: %+v", c)
	}

	// A REFUSED error with no answers is clean.
	q := dnswire.NewQuery(2, "www.google.com", dnswire.TypeAAAA)
	r := q.Reply()
	r.Header.RCode = dnswire.RCodeRefused
	w, _ := r.Encode()
	if ClassifyMessages([][]byte{w}).Injected() {
		t.Error("REFUSED flagged as injected")
	}

	// Garbage bytes are ignored, not flagged.
	if ClassifyMessages([][]byte{{1, 2, 3}}).Injected() {
		t.Error("undecodable response flagged")
	}
}

func TestDetectorAgainstModel(t *testing.T) {
	// End-to-end: scan a GFW-affected world and verify evidence-based
	// detection matches ground truth exactly.
	ases := []*netmodel.AS{
		{ASN: 4134, Name: "CN", Country: "CN", Category: netmodel.CatISP,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("240e::/20")}, AnnouncedFrom: []int{0}},
		{ASN: 100, Name: "EU", Country: "DE", Category: netmodel.CatCloud,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2001:100::/32")}, AnnouncedFrom: []int{0}},
	}
	n := netmodel.NewNetwork(5, netmodel.NewASTable(ases))
	n.AddHost(&netmodel.Host{Addr: ip6.MustParseAddr("2001:100::53"),
		Protos: netmodel.ProtoSetOf(netmodel.UDP53), BornDay: 0, DeathDay: netmodel.Forever,
		UptimePermille: 1000, DNS: netmodel.DNSRefusing})
	// A real Chinese DNS host: injected AND real answers arrive; still
	// classified injected by evidence (the paper filters the DNS result
	// but keeps the address if other protocols respond).
	n.AddHost(&netmodel.Host{Addr: ip6.MustParseAddr("240e::53"),
		Protos: netmodel.ProtoSetOf(netmodel.UDP53, netmodel.ICMP), BornDay: 0, DeathDay: netmodel.Forever,
		UptimePermille: 1000, DNS: netmodel.DNSRefusing})
	g := netmodel.NewGFWModel(5)
	g.AffectedASNs[4134] = true
	g.BlockedDomains["google.com"] = true
	g.Eras = []netmodel.InjectionEra{{StartDay: 0, EndDay: 1000, Mode: netmodel.InjectA}}
	n.GFW = g

	cfg := scan.DefaultConfig(1)
	cfg.LossRate = 0
	s := scan.New(n, cfg)

	var targets []ip6.Addr
	base := ip6.MustParsePrefix("240e::/20")
	for i := uint64(0); i < 50; i++ {
		targets = append(targets, base.NthAddr(i*887+1))
	}
	targets = append(targets, ip6.MustParseAddr("2001:100::53"), ip6.MustParseAddr("240e::53"))

	var results []scan.Result
	for _, a := range targets {
		results = append(results, s.ProbeOne(a, netmodel.UDP53, 10))
	}
	for _, r := range results {
		got := ClassifyResult(r).Injected()
		want := r.InjectedTruth > 0
		if got != want {
			t.Errorf("%v: detected=%v truth=%v", r.Target, got, want)
		}
	}

	kept, injected := FilterResults(results)
	if len(injected) != 51 { // 50 ghosts + the real CN host (injection rides along)
		t.Errorf("injected: %d", len(injected))
	}
	if len(kept) != len(results)-51 {
		t.Errorf("kept: %d", len(kept))
	}
}

func TestTracker(t *testing.T) {
	mk := func(addr string, proto netmodel.Protocol, injected bool) scan.Result {
		r := scan.Result{Target: ip6.MustParseAddr(addr), Proto: proto, Success: true}
		if proto == netmodel.UDP53 {
			var rr dnswire.RR
			if injected {
				rr = dnswire.RR{Name: "www.google.com", Type: dnswire.TypeA, A: ip6.IPv4{31, 13, 94, 37}}
			} else {
				rr = dnswire.RR{Name: "www.google.com", Type: dnswire.TypeAAAA, AAAA: ip6.MustParseAddr("2607:f8b0::2004")}
			}
			q := dnswire.NewQuery(1, "www.google.com", dnswire.TypeAAAA)
			reply := q.Reply()
			reply.Answers = []dnswire.RR{rr}
			w, err := reply.Encode()
			if err != nil {
				t.Fatal(err)
			}
			r.DNS = [][]byte{w}
		}
		return r
	}

	// observe folds results in the way the service does: classified,
	// an injected answer handed to AddEvidenceShard, and every clean
	// success, a clean DNS answer included, added to clean (the
	// service's any-protocol ever-responsive set).
	observe := func(tr *Tracker, clean *ip6.SpillSet, results []scan.Result) {
		for _, r := range results {
			if !r.Success {
				continue
			}
			if ClassifyResult(r).Injected() {
				tr.AddEvidenceShard(ip6.ShardOf(r.Target), []ip6.Addr{r.Target})
			} else {
				clean.Add(r.Target)
			}
		}
	}
	injectedOnly := func(tr *Tracker, clean *ip6.SpillSet) []ip6.Addr {
		t.Helper()
		only, err := tr.InjectedOnly(clean)
		if err != nil {
			t.Fatal(err)
		}
		var out []ip6.Addr
		only.Walk(func(a ip6.Addr) bool { out = append(out, a); return true })
		ip6.SortAddrs(out)
		return out
	}
	spilled, err := ip6.NewSpillSet(t.TempDir(), 1) // every shard of more than one address has runs
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()

	// The clean set is resident, or spilled to runs with a Δ beside them.
	for _, clean := range []*ip6.SpillSet{ip6.NewResidentSet(), spilled} {
		tr := NewTracker()
		// Scan 1: a pure-GFW ghost, a GFW-seen host that also does ICMP,
		// one that will answer DNS cleanly later, a clean DNS server.
		observe(tr, clean, []scan.Result{
			mk("240e::1", netmodel.UDP53, true),
			mk("240e::53", netmodel.UDP53, true),
			mk("240e::53", netmodel.ICMP, false),
			mk("240e::54", netmodel.UDP53, true),
			mk("2001:100::53", netmodel.UDP53, false),
			{Target: ip6.MustParseAddr("240e::9"), Proto: netmodel.UDP53, Success: false},
		})
		if got := injectedOnly(tr, clean); len(got) != 2 || got[0] != ip6.MustParseAddr("240e::1") || got[1] != ip6.MustParseAddr("240e::54") {
			t.Errorf("InjectedOnly: %v, want [240e::1 240e::54]", got)
		}
		if tr.InjectedSeen().Len() != 3 || tr.InjectedSeenLen() != 3 {
			t.Errorf("InjectedSeen: %d", tr.InjectedSeen().Len())
		}

		// Scan 2: the ghost turns out to answer TCP, and 240e::54 answers
		// DNS cleanly → both leave the injected-only set, and the
		// evidence stays.
		observe(tr, clean, []scan.Result{
			mk("240e::1", netmodel.TCP80, false),
			mk("240e::54", netmodel.UDP53, false),
		})
		if got := injectedOnly(tr, clean); len(got) != 0 {
			t.Errorf("InjectedOnly should shrink when other answers arrive: %v", got)
		}
		if tr.InjectedSeenLen() != 3 {
			t.Errorf("InjectedSeen after scan 2: %d", tr.InjectedSeenLen())
		}
	}

	// A clean shard that cannot be read fails the walk: many clean
	// addresses give every shard runs, and the scratch file is closed.
	tr := NewTracker()
	observe(tr, spilled, []scan.Result{mk("240e::2", netmodel.UDP53, true)})
	for i := uint64(0); i < 2000; i++ {
		spilled.Add(ip6.AddrFromUint64s(0x2001_0db8_0000_0000, i))
	}
	spilled.Close()
	if only, err := tr.InjectedOnly(spilled); err == nil {
		t.Errorf("InjectedOnly over a closed spilled set: %d addresses, no error", only.Len())
	}
}

func TestClassifyRecordFromCSV(t *testing.T) {
	rec := scan.Record{
		Proto: netmodel.UDP53, Success: true, Responses: 3,
		Answers: []scan.AnswerSummary{
			{Type: dnswire.TypeA, Value: "31.13.94.37"},
		},
	}
	c := ClassifyRecord(rec)
	if !c.AForAAAA || !c.MultiResponse || !c.Injected() {
		t.Errorf("A record CSV: %+v", c)
	}

	teredo := ip6.TeredoAddr(ip6.IPv4{65, 54, 227, 120}, ip6.IPv4{31, 13, 94, 37})
	rec = scan.Record{
		Proto: netmodel.UDP53, Success: true, Responses: 2,
		Answers: []scan.AnswerSummary{{Type: dnswire.TypeAAAA, Value: teredo.String()}},
	}
	if !ClassifyRecord(rec).Teredo {
		t.Error("Teredo CSV not classified")
	}

	rec = scan.Record{
		Proto: netmodel.UDP53, Success: true, Responses: 1,
		Answers: []scan.AnswerSummary{{Type: dnswire.TypeAAAA, Value: "2607:f8b0::2004"}},
	}
	if ClassifyRecord(rec).Injected() {
		t.Error("clean CSV record flagged")
	}

	// Non-DNS records never classify.
	rec = scan.Record{Proto: netmodel.ICMP, Success: true}
	if ClassifyRecord(rec).Injected() {
		t.Error("ICMP record flagged")
	}

	kept, injected := FilterRecords([]scan.Record{
		{Proto: netmodel.UDP53, Success: true, Responses: 2,
			Answers: []scan.AnswerSummary{{Type: dnswire.TypeA, Value: "31.13.94.37"}}},
		{Proto: netmodel.ICMP, Success: true},
	})
	if len(kept) != 1 || len(injected) != 1 {
		t.Errorf("FilterRecords: %d/%d", len(kept), len(injected))
	}
}
