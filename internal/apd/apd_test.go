package apd

import (
	"context"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/scan"
)

func testWorld(t testing.TB) *netmodel.Network {
	t.Helper()
	ases := []*netmodel.AS{
		{ASN: 16509, Name: "Amazon", Country: "US", Category: netmodel.CatCloud,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2600:9000::/28")}, AnnouncedFrom: []int{0}},
		{ASN: 100, Name: "Plain", Country: "DE", Category: netmodel.CatISP,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2001:100::/32")}, AnnouncedFrom: []int{0}},
	}
	n := netmodel.NewNetwork(3, netmodel.NewASTable(ases))
	// Aliased /48 inside Amazon.
	n.AddAlias(&netmodel.AliasRule{
		Prefix: ip6.MustParsePrefix("2600:9000:1::/48"), AS: ases[0],
		Protos:   netmodel.ProtoSetOf(netmodel.ICMP, netmodel.TCP80),
		Backends: 4, BornDay: 0, DeathDay: netmodel.Forever, FP: netmodel.FPLinuxLB, MTU: 1500,
	})
	// Aliased /64 (ICMP only, like Trafficforce).
	n.AddAlias(&netmodel.AliasRule{
		Prefix: ip6.MustParsePrefix("2001:100:0:aaaa::/64"), AS: ases[1],
		Protos:   netmodel.ProtoSetOf(netmodel.ICMP),
		Backends: 1, BornDay: 0, DeathDay: netmodel.Forever, FP: netmodel.FPBSD, MTU: 1500,
	})
	// Ordinary sparse hosts in a normal /64: must NOT be aliased.
	for i := uint64(0); i < 5; i++ {
		n.AddHost(&netmodel.Host{
			Addr:    ip6.MustParsePrefix("2001:100:0:1::/64").NthAddr(i + 1),
			Protos:  netmodel.ProtoSetOf(netmodel.ICMP, netmodel.TCP80),
			BornDay: 0, DeathDay: netmodel.Forever, UptimePermille: 1000, FP: netmodel.FPLinux, MTU: 1500,
		})
	}
	return n
}

func lossless(n *netmodel.Network) *scan.Scanner {
	cfg := scan.DefaultConfig(1)
	cfg.LossRate = 0
	return scan.New(n, cfg)
}

func TestCandidates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinAddrsLongPrefix = 3
	bgp := []ip6.Prefix{ip6.MustParsePrefix("2600:9000::/28"), ip6.MustParsePrefix("2001:100::/32")}

	var input []ip6.Addr
	// One address in a /64 → /64 candidate.
	input = append(input, ip6.MustParseAddr("2001:100:0:1::1"))
	// Three addresses dense in one /112 → /68.../112 candidates appear.
	for i := uint64(0); i < 3; i++ {
		input = append(input, ip6.MustParsePrefix("2001:100:0:2::aa00/112").NthAddr(i))
	}

	cands := Candidates(bgp, input, cfg)
	want := map[string]bool{
		"2600:9000::/28":    true,
		"2001:100::/32":     true,
		"2001:100:0:1::/64": true,
		"2001:100:0:2::/64": true,
	}
	got := map[string]bool{}
	for _, c := range cands {
		got[c.String()] = true
	}
	for w := range want {
		if !got[w] {
			t.Errorf("missing candidate %s (have %v)", w, cands)
		}
	}
	// Long-prefix levels present for the dense /112 cluster.
	found112 := false
	for _, c := range cands {
		if c.Bits() == 112 && c.Contains(ip6.MustParseAddr("2001:100:0:2::aa01")) {
			found112 = true
		}
	}
	if !found112 {
		t.Error("dense cluster did not yield /112 candidate")
	}
	// No duplicates.
	seen := map[ip6.Prefix]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %v", c)
		}
		seen[c] = true
	}
}

func TestDetectAliased(t *testing.T) {
	n := testWorld(t)
	d := NewDetector(lossless(n), DefaultConfig())
	cands := []ip6.Prefix{
		ip6.MustParsePrefix("2600:9000:1::/48"),     // aliased
		ip6.MustParsePrefix("2001:100:0:aaaa::/64"), // aliased (ICMP only)
		ip6.MustParsePrefix("2001:100:0:1::/64"),    // sparse hosts
		ip6.MustParsePrefix("2600:9000::/28"),       // BGP super-prefix: only 1/16 slots aliased
	}
	res, err := d.Run(context.Background(), cands, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aliased.Has(cands[0]) {
		t.Error("aliased /48 not detected")
	}
	if !res.Aliased.Has(cands[1]) {
		t.Error("ICMP-only aliased /64 not detected")
	}
	if res.Aliased.Has(cands[2]) {
		t.Error("sparse /64 falsely aliased")
	}
	if res.Aliased.Has(cands[3]) {
		t.Error("super-prefix falsely aliased")
	}
	dets := res.Detections()
	if det := dets[cands[2]]; det.Aliased || det.Bitmap == 0xffff {
		t.Errorf("sparse detection: %+v", det)
	}
	if ResponsiveSlots(dets[cands[0]].Bitmap) != 16 {
		t.Errorf("aliased slots: %d", ResponsiveSlots(dets[cands[0]].Bitmap))
	}
	if res.Probes == 0 {
		t.Error("no probes counted")
	}
}

func TestMergeAcrossScansAbsorbsLoss(t *testing.T) {
	n := testWorld(t)
	// A very lossy scanner: single rounds will miss slots, the 3-scan
	// merge recovers them.
	cfg := scan.DefaultConfig(2)
	cfg.LossRate = 0.25
	cfg.Retries = 0
	s := scan.New(n, cfg)

	aliased := ip6.MustParsePrefix("2600:9000:1::/48")

	noMerge := NewDetector(s, Config{MergeScans: 0})
	merge := NewDetector(s, Config{MergeScans: 3})

	missesNoMerge, missesMerge := 0, 0
	for day := 0; day < 12; day++ {
		r1, err := noMerge.Run(context.Background(), []ip6.Prefix{aliased}, day)
		if err != nil {
			t.Fatal(err)
		}
		if !r1.Aliased.Has(aliased) {
			missesNoMerge++
		}
		r2, err := merge.Run(context.Background(), []ip6.Prefix{aliased}, day)
		if err != nil {
			t.Fatal(err)
		}
		if !r2.Aliased.Has(aliased) && day >= 3 {
			missesMerge++
		}
	}
	// With 25% loss and no retries, P(all 16 slots hit in one round via 2
	// protocols) is ~0.36; merged over 4 rounds it should almost always
	// succeed.
	if missesNoMerge < 3 {
		t.Errorf("expected frequent single-round misses, got %d/12", missesNoMerge)
	}
	if missesMerge > 2 {
		t.Errorf("merged detection missed %d times", missesMerge)
	}
}

func TestSlotAddrProperties(t *testing.T) {
	p := ip6.MustParsePrefix("2600:9000:1::/48")
	seenNibbles := map[byte]bool{}
	for v := byte(0); v < 16; v++ {
		a := SlotAddr(p, v, 7)
		if !p.Contains(a) {
			t.Fatalf("slot %d outside prefix: %v", v, a)
		}
		// The slot address sits in the v-th /52 subprefix.
		if a.Nibble(12) != v {
			t.Errorf("slot %d landed in nibble %d", v, a.Nibble(12))
		}
		seenNibbles[a.Nibble(12)] = true
		// Deterministic per day.
		if SlotAddr(p, v, 7) != a {
			t.Error("SlotAddr not deterministic")
		}
		// Fresh randomness across days.
		if SlotAddr(p, v, 8) == a {
			t.Error("SlotAddr identical across days")
		}
	}
	if len(seenNibbles) != 16 {
		t.Errorf("slots cover %d/16 subprefixes", len(seenNibbles))
	}
}

func TestAggregate(t *testing.T) {
	in := []ip6.Prefix{
		ip6.MustParsePrefix("2600:9000:1:2::/64"), // inside the /48
		ip6.MustParsePrefix("2600:9000:1::/48"),
		ip6.MustParsePrefix("2001:100:0:aaaa::/64"), // independent
		ip6.MustParsePrefix("2600:9000:1:2:3::/80"), // deeper nesting
	}
	out := Aggregate(in)
	if len(out) != 2 {
		t.Fatalf("aggregate: %v", out)
	}
	want := map[string]bool{"2600:9000:1::/48": true, "2001:100:0:aaaa::/64": true}
	for _, p := range out {
		if !want[p.String()] {
			t.Errorf("unexpected aggregate member %v", p)
		}
	}
	// Idempotent and duplicate-safe.
	out2 := Aggregate(append(out, out...))
	if len(out2) != 2 {
		t.Errorf("re-aggregate: %v", out2)
	}
	if len(Aggregate(nil)) != 0 {
		t.Error("empty aggregate")
	}
}

func TestCandidateTooLongRejected(t *testing.T) {
	n := testWorld(t)
	d := NewDetector(lossless(n), DefaultConfig())
	_, err := d.Run(context.Background(), []ip6.Prefix{ip6.MustParsePrefix("2001:100::1/128")}, 1)
	if err == nil {
		t.Error("/128 candidate accepted")
	}
}

func BenchmarkDetectRound(b *testing.B) {
	n := testWorld(b)
	d := NewDetector(lossless(n), DefaultConfig())
	cands := []ip6.Prefix{
		ip6.MustParsePrefix("2600:9000:1::/48"),
		ip6.MustParsePrefix("2001:100:0:aaaa::/64"),
		ip6.MustParsePrefix("2001:100:0:1::/64"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Run(context.Background(), cands, i); err != nil {
			b.Fatal(err)
		}
	}
}
