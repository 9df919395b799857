package worldgen

import (
	"context"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/scan"
	"hitlist6/internal/sources"
	"hitlist6/internal/yarrp"
)

// collectFeeds pulls every feed active at day into a map by feed name.
func collectFeeds(t *testing.T, feeds []*sources.Feed, day int) map[string][]ip6.Addr {
	t.Helper()
	out := make(map[string][]ip6.Addr)
	for _, ns := range sources.Open(context.Background(), feeds, day) {
		addrs, err := scan.Collect(ns.Src)
		if err != nil {
			t.Fatal(err)
		}
		out[ns.Name] = addrs
	}
	return out
}

func TestGenerateBasics(t *testing.T) {
	w, err := Generate(TestParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if w.Net.AS.NumASes() < 40 {
		t.Errorf("ASes: %d", w.Net.AS.NumASes())
	}
	if w.Net.NumHosts() == 0 {
		t.Fatal("no hosts")
	}
	if len(w.Net.AliasRules()) == 0 {
		t.Fatal("no alias rules")
	}
	if len(w.ScanDays) < 100 {
		t.Errorf("scan days: %d", len(w.ScanDays))
	}
	if w.ScanDays[len(w.ScanDays)-1] != EndDay {
		t.Errorf("schedule must end at EndDay, got %d", w.ScanDays[len(w.ScanDays)-1])
	}
	if w.Registry.NumDomains() == 0 {
		t.Error("no domains")
	}
	if w.PassiveNSMX.Len() == 0 || len(w.ArkAddrs) == 0 || len(w.DETAddrs) == 0 {
		t.Error("new-source material missing")
	}
	if w.Blocklist.Len() == 0 {
		t.Error("empty blocklist")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w1, err := Generate(TestParams(7))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(TestParams(7))
	if err != nil {
		t.Fatal(err)
	}
	if w1.Net.NumHosts() != w2.Net.NumHosts() {
		t.Errorf("host counts differ: %d vs %d", w1.Net.NumHosts(), w2.Net.NumHosts())
	}
	if len(w1.Net.AliasRules()) != len(w2.Net.AliasRules()) {
		t.Error("alias rules differ")
	}
	if len(w1.DETAddrs) != len(w2.DETAddrs) || (len(w1.DETAddrs) > 0 && w1.DETAddrs[0] != w2.DETAddrs[0]) {
		t.Error("DET snapshots differ")
	}
}

func TestNamedASStructure(t *testing.T) {
	w, err := Generate(TestParams(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range []int{ASNAmazon, ASNFastly, ASNCloudflare, ASNTrafficforce, ASNFreeSAS, 4134, 4812} {
		if w.Net.AS.ByASN(asn) == nil {
			t.Errorf("missing AS%d", asn)
		}
	}
	// Trafficforce prefixes are born at the event day.
	tf := w.Net.AS.ByASN(ASNTrafficforce)
	for _, from := range tf.AnnouncedFrom {
		if from != TrafficforceDay {
			t.Errorf("TF announcement day %d", from)
		}
	}
	// GFW is wired with the Table 5 ASes.
	if w.Net.GFW == nil || !w.Net.GFW.AffectedASNs[4134] || !w.Net.GFW.AffectedASNs[4812] {
		t.Error("GFW not wired")
	}
	if len(w.Net.GFW.Eras) != 3 {
		t.Errorf("eras: %d", len(w.Net.GFW.Eras))
	}
	// Aliased space responds: any address in a Fastly aliased child.
	fastly := w.Net.AS.ByASN(ASNFastly).Announced[0]
	if !w.Net.TrueResponds(fastly.Child(4, 3).NthAddr(12345), netmodel.ICMP, 100) {
		t.Error("Fastly aliased space unresponsive")
	}
}

func TestFeedsProduceInput(t *testing.T) {
	w, err := Generate(TestParams(3))
	if err != nil {
		t.Fatal(err)
	}
	tracer := yarrp.New(w.Net, yarrp.Config{Seed: 3})
	feeds := w.BuildFeeds(tracer)
	if len(feeds) < 6 {
		t.Fatalf("feeds: %d", len(feeds))
	}
	out := collectFeeds(t, feeds, 0)
	total := 0
	for name, addrs := range out {
		total += len(addrs)
		if name == "" {
			t.Error("unnamed feed")
		}
	}
	if total == 0 {
		t.Fatal("no input on day 0")
	}
	// The CN feed ramps up in era 3.
	early := len(w.cnDestinations(10))
	late := len(w.cnDestinations(netmodel.DayOf(2022, 1, 1)))
	if late <= early {
		t.Errorf("CN destination schedule flat: %d vs %d", early, late)
	}
	// rDNS snapshot stays open for two weeks (until the next scheduled
	// scan) and then closes.
	rdnsDay := netmodel.DayOf(2019, 2, 1)
	out = collectFeeds(t, feeds, rdnsDay)
	if len(out["rdns"]) == 0 {
		t.Error("rdns feed empty on its day")
	}
	out = collectFeeds(t, feeds, rdnsDay+7)
	if len(out["rdns"]) == 0 {
		t.Error("rdns feed must cover the following scan")
	}
	out = collectFeeds(t, feeds, rdnsDay+20)
	if len(out["rdns"]) != 0 {
		t.Error("rdns feed active past its window")
	}
}

func TestGrowthCohortsShapeTable1(t *testing.T) {
	w, err := Generate(Params{Seed: 5, Scale: 1.0 / 2000, TailASes: 40, ScanIntervalDays: 7})
	if err != nil {
		t.Fatal(err)
	}
	countAlive := func(day int) int {
		n := 0
		w.Net.WalkHosts(func(h *netmodel.Host) bool {
			if h.RespondsTo(netmodel.ICMP, day) {
				n++
			}
			return true
		})
		return n
	}
	y2018 := countAlive(netmodel.Day2018)
	y2019 := countAlive(netmodel.Day2019)
	y2020 := countAlive(netmodel.Day2020)
	y2022 := countAlive(netmodel.Day2022)
	if y2019 <= y2018 {
		t.Errorf("2018→2019 growth missing: %d → %d", y2018, y2019)
	}
	if y2020 >= y2019 {
		t.Errorf("2019→2020 dip missing: %d → %d", y2019, y2020)
	}
	if y2022 <= y2020 {
		t.Errorf("2020→2022 growth missing: %d → %d", y2020, y2022)
	}
}
