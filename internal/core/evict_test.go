package core

import (
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/sources"
)

// ghostFeeds delivers a single never-responding address every day of the
// tinyWorld network, isolating the 30-day filter from scan responses.
func ghostFeeds(ghost ip6.Addr) []*sources.Feed {
	return []*sources.Feed{
		sources.Recurring("ghost", 0, netmodel.Forever, func(day int) []ip6.Addr {
			return []ip6.Addr{ghost}
		}),
	}
}

// TestEvictionBoundaryDay pins the filter's edge: a target whose
// reference day is exactly UnresponsiveDays old is still scanned
// (eviction fires strictly beyond the horizon), one day later it is
// gone.
func TestEvictionBoundaryDay(t *testing.T) {
	ghost := ip6.MustParseAddr("2001:100::ee")
	cfg := DefaultConfig(1)
	cfg.RetainUnresponsive = true

	n, _ := tinyWorld(t)
	s := NewService(cfg, n, ghostFeeds(ghost), nil)
	runDays(t, s, []int{0, 30})
	at30 := s.Records()[1]
	if at30.Evicted != 0 || at30.ScannedTargets != 1 {
		t.Errorf("day 30 (exactly on the horizon): evicted=%d scanned=%d, want 0/1",
			at30.Evicted, at30.ScannedTargets)
	}

	n2, _ := tinyWorld(t)
	s2 := NewService(cfg, n2, ghostFeeds(ghost), nil)
	runDays(t, s2, []int{0, 31})
	at31 := s2.Records()[1]
	if at31.Evicted != 1 || at31.ScannedTargets != 0 {
		t.Errorf("day 31 (past the horizon): evicted=%d scanned=%d, want 1/0",
			at31.Evicted, at31.ScannedTargets)
	}
	if !s2.UnresponsivePool().Has(ghost) {
		t.Error("evicted address missing from retained pool")
	}
	if s2.Funnel().ActiveScan != 0 {
		t.Errorf("active after eviction: %d", s2.Funnel().ActiveScan)
	}
}

// TestEvictedAddressNotReadmitted: input dedup is cumulative, so a feed
// that keeps delivering an evicted address cannot re-admit it — the
// paper's service only re-tests such addresses through the dedicated
// re-scan experiment, never through the daily pipeline.
func TestEvictedAddressNotReadmitted(t *testing.T) {
	ghost := ip6.MustParseAddr("2001:100::ee")
	cfg := DefaultConfig(1)
	cfg.RetainUnresponsive = true
	n, _ := tinyWorld(t)
	s := NewService(cfg, n, ghostFeeds(ghost), nil)
	runDays(t, s, []int{0, 31, 38, 45})
	for _, rec := range s.Records()[1:] {
		if rec.NewInput != 0 {
			t.Errorf("day %d: re-ingested evicted address (new input %d)", rec.Day, rec.NewInput)
		}
		if rec.ScannedTargets != 0 && rec.Day > 31 {
			t.Errorf("day %d: evicted address scanned again", rec.Day)
		}
	}
	if got := s.Funnel().Evicted; got != 1 {
		t.Errorf("cumulative evictions: %d, want 1 (no double eviction)", got)
	}
	if !s.UnresponsivePool().Has(ghost) {
		t.Error("pool lost the evicted address")
	}
}

// TestEvictionVsGFWDeployment: before the filter deploys, injected DNS
// answers keep GFW-phantom addresses alive (the published behaviour), so
// the 30-day filter never evicts them; deployment then removes them from
// the active window in the deployment purge — as a GFW drop, not an
// eviction — and they stay out.
func TestEvictionVsGFWDeployment(t *testing.T) {
	n, feeds := tinyWorld(t)
	cfg := DefaultConfig(1)
	cfg.GFWFilterFromDay = 150
	cfg.RetainUnresponsive = true
	s := NewService(cfg, n, feeds, nil)
	runDays(t, s, weekly(0, 196))

	cn1 := ip6.MustParseAddr("240e::1")
	cn2 := ip6.MustParseAddr("240e::2")
	if s.UnresponsivePool().Has(cn1) || s.UnresponsivePool().Has(cn2) {
		t.Error("GFW-phantom address was evicted; injected responses should have kept it alive")
	}

	var deployRec *ScanRecord
	evictedAfter := 0
	for _, rec := range s.Records() {
		if deployRec == nil && rec.Day >= 150 {
			deployRec = rec
		}
		if rec.Day >= 150 {
			evictedAfter += rec.Evicted
		}
	}
	if deployRec == nil {
		t.Fatal("no scan at or after the deployment day")
	}
	// Both CN addresses were active at deployment (kept alive by
	// injections) and must be dropped by the cumulative filter there.
	if deployRec.GFWFilteredInput != 2 {
		t.Errorf("deployment scan GFW drops: %d, want 2", deployRec.GFWFilteredInput)
	}
	if evictedAfter != 0 {
		t.Errorf("post-deployment evictions: %d, want 0 (phantoms leave via the filter)", evictedAfter)
	}
	// The scan set afterwards holds only the real web host: the dying
	// host was evicted mid-timeline, the aliased input filtered at
	// ingest, the phantoms filtered at deployment.
	last := s.Records()[len(s.Records())-1]
	if last.ScannedTargets != 1 {
		t.Errorf("final scan set: %d targets, want 1", last.ScannedTargets)
	}
}
