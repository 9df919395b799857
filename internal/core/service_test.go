package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/sources"
	"hitlist6/internal/worldgen"
	"hitlist6/internal/yarrp"
)

// tinyWorld is a hand-built world: one web host, one aliased /64, one
// GFW-affected CN region with an injection era, and feeds delivering them.
func tinyWorld(t testing.TB) (*netmodel.Network, []*sources.Feed) {
	t.Helper()
	ases := []*netmodel.AS{
		{ASN: 100, Name: "Cloud", Country: "DE", Category: netmodel.CatCloud,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2001:100::/32")}, AnnouncedFrom: []int{0}},
		{ASN: 4134, Name: "CN", Country: "CN", Category: netmodel.CatISP, RouterRotationDays: 7,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("240e::/24")}, AnnouncedFrom: []int{0}},
	}
	n := netmodel.NewNetwork(1, netmodel.NewASTable(ases))
	web := ip6.MustParseAddr("2001:100::80")
	n.AddHost(&netmodel.Host{Addr: web, Protos: netmodel.ProtoSetOf(netmodel.ICMP, netmodel.TCP80),
		BornDay: 0, DeathDay: netmodel.Forever, UptimePermille: 1000, FP: netmodel.FPLinux, MTU: 1500})
	// A host that dies at day 50: must be evicted ~30 days later.
	dying := ip6.MustParseAddr("2001:100::81")
	n.AddHost(&netmodel.Host{Addr: dying, Protos: netmodel.ProtoSetOf(netmodel.ICMP),
		BornDay: 0, DeathDay: 50, UptimePermille: 1000, MTU: 1500})
	n.AddAlias(&netmodel.AliasRule{
		Prefix: ip6.MustParsePrefix("2001:100:a::/64"), AS: ases[0],
		Protos:  netmodel.ProtoSetOf(netmodel.ICMP, netmodel.TCP80),
		BornDay: 0, DeathDay: netmodel.Forever, Backends: 1, FP: netmodel.FPBSD, MTU: 1500})
	g := netmodel.NewGFWModel(1)
	g.AffectedASNs[4134] = true
	g.BlockedDomains["google.com"] = true
	g.Eras = []netmodel.InjectionEra{{StartDay: 60, EndDay: 200, Mode: netmodel.InjectTeredo}}
	n.GFW = g

	aliasAddr := ip6.MustParsePrefix("2001:100:a::/64").NthAddr(7)
	cn1 := ip6.MustParseAddr("240e::1")
	cn2 := ip6.MustParseAddr("240e::2")
	feeds := []*sources.Feed{
		sources.Recurring("dns", 0, netmodel.Forever, func(day int) []ip6.Addr {
			return []ip6.Addr{web, dying, aliasAddr}
		}),
		sources.Recurring("cn", 0, netmodel.Forever, func(day int) []ip6.Addr {
			if day >= 60 {
				return []ip6.Addr{cn1, cn2}
			}
			return nil
		}),
	}
	return n, feeds
}

func runDays(t testing.TB, s *Service, days []int) {
	t.Helper()
	for _, d := range days {
		if _, err := s.RunScan(context.Background(), d); err != nil {
			t.Fatalf("scan at day %d: %v", d, err)
		}
	}
}

func weekly(from, to int) []int {
	var out []int
	for d := from; d <= to; d += 7 {
		out = append(out, d)
	}
	return out
}

func TestPipelineBasics(t *testing.T) {
	n, feeds := tinyWorld(t)
	cfg := DefaultConfig(1)
	s := NewService(cfg, n, feeds, nil)

	runDays(t, s, weekly(0, 28))
	recs := s.Records()
	if len(recs) != 5 {
		t.Fatalf("records: %d", len(recs))
	}
	r0 := recs[0]
	if r0.NewInput != 3 {
		t.Errorf("new input: %d", r0.NewInput)
	}
	// The aliased /64 was filtered before scanning (detected via the /64
	// candidate from input).
	if r0.AliasedInput == 0 {
		t.Error("alias filter did not fire")
	}
	if r0.ScannedTargets != 2 {
		t.Errorf("scan set: %d", r0.ScannedTargets)
	}
	if r0.ResponsiveClean[netmodel.ICMP] != 2 || r0.ResponsiveClean[netmodel.TCP80] != 1 {
		t.Errorf("responsive: %+v", r0.ResponsiveClean)
	}
	if r0.TotalClean != 2 || r0.FirstResp != 2 {
		t.Errorf("totals: %+v", r0)
	}
	// Later scans: no new input (dedup), stable responsiveness.
	if recs[1].NewInput != 0 {
		t.Errorf("dedup failed: %d new", recs[1].NewInput)
	}
	if s.AliasedPrefixes().Len() == 0 {
		t.Error("no aliased prefixes recorded")
	}
}

func TestThirtyDayEviction(t *testing.T) {
	n, feeds := tinyWorld(t)
	cfg := DefaultConfig(1)
	cfg.RetainUnresponsive = true
	s := NewService(cfg, n, feeds, nil)

	runDays(t, s, weekly(0, 112))
	dying := ip6.MustParseAddr("2001:100::81")
	if s.UnresponsivePool().Len() == 0 || !s.UnresponsivePool().Has(dying) {
		t.Errorf("dying host not evicted: pool=%v", s.UnresponsivePool().Merge().Sorted())
	}
	// The web host survives.
	last := s.Records()[len(s.Records())-1]
	if last.ResponsiveClean[netmodel.ICMP] < 1 {
		t.Error("web host lost")
	}
	// Unresp churn fired when the dying host vanished.
	sawUnresp := false
	for _, rec := range s.Records() {
		if rec.Unresp > 0 {
			sawUnresp = true
		}
	}
	if !sawUnresp {
		t.Error("no unresponsive churn recorded")
	}
}

func TestGFWPublishedVsCleanAndFilter(t *testing.T) {
	n, feeds := tinyWorld(t)
	cfg := DefaultConfig(1)
	cfg.GFWFilterFromDay = 150
	s := NewService(cfg, n, feeds, nil)

	runDays(t, s, weekly(0, 196))

	var peakRaw, peakClean, injectedAt int
	for _, rec := range s.Records() {
		if rec.ResponsiveRaw[netmodel.UDP53] > peakRaw {
			peakRaw = rec.ResponsiveRaw[netmodel.UDP53]
			injectedAt = rec.Day
		}
		if rec.ResponsiveClean[netmodel.UDP53] > peakClean {
			peakClean = rec.ResponsiveClean[netmodel.UDP53]
		}
	}
	if peakRaw < 2 {
		t.Fatalf("no DNS spike in published view (peak %d)", peakRaw)
	}
	if peakClean != 0 {
		t.Errorf("cleaned view shows injected responders: %d", peakClean)
	}
	if injectedAt < 60 {
		t.Errorf("spike before era start: day %d", injectedAt)
	}
	// Deployment purges the injected-only addresses from the active
	// window, and the funnel accounts for them.
	if s.Funnel().GFWFiltered == 0 {
		t.Error("GFW filter deployment purged nothing")
	}
	only, err := s.InjectedOnly()
	if err != nil {
		t.Fatal(err)
	}
	if inj, injOnly := s.Tracker().InjectedSeenLen(), only.Len(); inj < 2 || injOnly < 2 {
		t.Errorf("tracker stats: %d %d", inj, injOnly)
	}
	// Only the deployment scan counts GFW drops: input dedup keeps every
	// purged address out of later input.
	var deployRec *ScanRecord
	for _, rec := range s.Records() {
		switch {
		case rec.Day < cfg.GFWFilterFromDay:
		case deployRec == nil:
			deployRec = rec
		case rec.GFWFilteredInput != 0:
			t.Errorf("day %d, after deployment: %d GFW drops, want 0", rec.Day, rec.GFWFilteredInput)
		}
	}
	if deployRec == nil {
		t.Fatal("no scan at or after the deployment day")
	}
	if got, want := deployRec.GFWFilteredInput, s.Funnel().GFWFiltered; got != want {
		t.Errorf("deployment scan GFW drops %d, funnel %d", got, want)
	}
}

func TestSnapshots(t *testing.T) {
	n, feeds := tinyWorld(t)
	cfg := DefaultConfig(1)
	cfg.SnapshotDays = []int{14, 70}
	s := NewService(cfg, n, feeds, nil)
	runDays(t, s, weekly(0, 84))

	snaps := s.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("snapshots: %d", len(snaps))
	}
	for day, snap := range snaps {
		if snap.ResponsiveAny.Len() == 0 {
			t.Errorf("snapshot %d empty", day)
		}
		if len(snap.Responsive) == 0 {
			t.Errorf("snapshot %d has no per-protocol sets", day)
		}
	}
	if !snaps[14].Responsive[netmodel.ICMP].Has(ip6.MustParseAddr("2001:100::80")) {
		t.Error("web host missing from snapshot")
	}
}

func TestFunnelAccounting(t *testing.T) {
	n, feeds := tinyWorld(t)
	s := NewService(DefaultConfig(1), n, feeds, nil)
	runDays(t, s, weekly(0, 28))
	f := s.Funnel()
	if f.Input != 3 {
		t.Errorf("funnel input: %d", f.Input)
	}
	if f.AliasedInput == 0 {
		t.Errorf("funnel aliased: %+v", f)
	}
	if f.ActiveScan == 0 || f.Responsive == 0 {
		t.Errorf("funnel active/responsive: %+v", f)
	}
	if got := s.InputByFeed()["dns"]; got != 3 {
		t.Errorf("per-feed input: %d", got)
	}
	if len(s.PerASInput()) == 0 {
		t.Error("per-AS input empty")
	}
}

func TestBlocklistFilter(t *testing.T) {
	n, feeds := tinyWorld(t)
	bl := ip6.NewPrefixSet()
	bl.Add(ip6.MustParsePrefix("2001:100::80/128"))
	s := NewService(DefaultConfig(1), n, feeds, bl)
	runDays(t, s, []int{0})
	rec := s.Records()[0]
	if rec.BlockedInput != 1 {
		t.Errorf("blocked: %d", rec.BlockedInput)
	}
	if rec.ResponsiveClean[netmodel.TCP80] != 0 {
		t.Error("blocked host was scanned")
	}
}

// errCollectDown is the failure TestIngestSourceErrorAdmitsNothing
// injects into a feed's Collect.
var errCollectDown = errors.New("feed collection down")

// TestIngestSourceErrorAdmitsNothing pins ingest's all-or-nothing
// contract: the feed that sorts last fails its Collect once, on day 63,
// after every other feed's candidates for that day (new ones: the cn
// feed starts on day 60) are already routed. RunScan returns the error
// with no record added, inputSeen unchanged and not one byte written to
// the checkpoint or spill directories; retrying the day and finishing
// the timeline reproduces the reference goldens. Resident, durable and
// budgeted, at one and four workers.
func TestIngestSourceErrorAdmitsNothing(t *testing.T) {
	const failDay = 63
	days := weekly(0, 196)
	k := slices.Index(days, failDay)
	configs := []struct {
		label string
		set   func(cfg *Config, root string)
	}{
		{"resident", func(*Config, string) {}},
		{"durable", func(c *Config, root string) {
			c.CheckpointDir = filepath.Join(root, "ckpt")
			c.CheckpointEvery = 1
		}},
		{"budgeted", func(c *Config, root string) {
			c.MemoryBudget = spillBudget
			c.SpillDir = filepath.Join(root, "spill")
		}},
	}
	for _, tc := range configs {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.label, workers), func(t *testing.T) {
				n, feeds := tinyWorld(t)
				feeds = slices.Clone(feeds)
				last := 0
				for i, f := range feeds {
					if f.Name > feeds[last].Name {
						last = i
					}
				}
				failing := *feeds[last]
				collect, failed := failing.Collect, false
				failing.Collect = func(ctx context.Context, day int) ([]ip6.Addr, error) {
					if day == failDay && !failed {
						failed = true
						return nil, errCollectDown
					}
					return collect(ctx, day)
				}
				feeds[last] = &failing

				root := t.TempDir()
				cfg := DefaultConfig(1)
				cfg.GFWFilterFromDay = 150
				cfg.SnapshotDays = []int{14, 70, 180}
				cfg.ScanWorkers = workers
				tc.set(&cfg, root)
				s := NewService(cfg, n, feeds, nil)
				defer s.Close()
				runDays(t, s, days[:k])

				// The routed feeds carry candidates admission would take.
				fresh := 0
				for i, f := range feeds {
					if i == last || !f.ActiveAt(failDay) {
						continue
					}
					addrs, err := f.Collect(context.Background(), failDay)
					if err != nil {
						t.Fatal(err)
					}
					for _, a := range addrs {
						if !s.InputSeenHas(a) {
							fresh++
						}
					}
				}
				if fresh == 0 {
					t.Fatalf("day %d: no feed before %q has new candidates; the test would prove nothing", failDay, feeds[last].Name)
				}

				seenView := func() []ip6.Addr {
					t.Helper()
					v, err := s.InputSeenView()
					if err != nil {
						t.Fatal(err)
					}
					return v.Sorted()
				}
				recs, seen, disk := len(s.Records()), seenView(), dirBytes(t, root)
				if _, err := s.RunScan(context.Background(), failDay); !errors.Is(err, errCollectDown) {
					t.Fatalf("day %d: RunScan err = %v, want %v", failDay, err, errCollectDown)
				}
				if got := len(s.Records()); got != recs {
					t.Errorf("failed scan added records: %d → %d", recs, got)
				}
				if got := seenView(); !slices.Equal(got, seen) {
					t.Errorf("failed scan changed inputSeen: %d → %d addresses", len(seen), len(got))
				}
				if got := dirBytes(t, root); !maps.EqualFunc(got, disk, bytes.Equal) {
					t.Errorf("failed scan changed files under the service's directories")
				}

				runDays(t, s, days[k:])
				compareGolden(t, "reference_tiny.json", goldenFrom(s.Records(), s.Snapshots()),
					fmt.Sprintf("%s workers=%d after a failed ingest", tc.label, workers))
			})
		}
	}
}

// TestServiceOnGeneratedWorld is the end-to-end smoke test: a miniature
// paper world run through a compressed schedule.
func TestServiceOnGeneratedWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-world run in -short mode")
	}
	w, err := worldgen.Generate(worldgen.TestParams(11))
	if err != nil {
		t.Fatal(err)
	}
	tracer := yarrp.New(w.Net, yarrp.Config{Seed: 11})
	feeds := w.BuildFeeds(tracer)
	cfg := DefaultConfig(11)
	cfg.GFWFilterFromDay = worldgen.GFWFilterDeployDay
	cfg.SnapshotDays = w.SnapshotDays()
	s := NewService(cfg, w.Net, feeds, w.Blocklist)

	// Every 4th scheduled scan keeps the test fast.
	for i := 0; i < len(w.ScanDays); i += 4 {
		if _, err := s.RunScan(context.Background(), w.ScanDays[i]); err != nil {
			t.Fatal(err)
		}
	}
	recs := s.Records()
	last := recs[len(recs)-1]
	if last.TotalClean == 0 {
		t.Fatal("no responsive addresses at the end")
	}
	if s.AliasedPrefixes().Len() == 0 {
		t.Error("no aliased prefixes detected")
	}
	// The GFW spike must be visible in raw-vs-clean DNS at some scan.
	sawSpike := false
	for _, rec := range recs {
		if rec.ResponsiveRaw[netmodel.UDP53] > 3*(rec.ResponsiveClean[netmodel.UDP53]+1) {
			sawSpike = true
		}
	}
	if !sawSpike {
		t.Error("no GFW spike in published view")
	}
	// Churn is recorded.
	churn := 0
	for _, rec := range recs {
		churn += rec.FirstResp + rec.RespAgain + rec.Unresp
	}
	if churn == 0 {
		t.Error("no churn recorded")
	}
	if s.EverResponsiveAnyLen() < last.TotalClean {
		t.Error("cumulative responsive smaller than current")
	}
}
