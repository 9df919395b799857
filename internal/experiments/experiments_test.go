package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/worldgen"
)

// sharedSuite runs one quick suite for the whole test binary.
var sharedSuite = NewSuite(QuickParams(21))

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	ctx := context.Background()
	if err := sharedSuite.Run(ctx); err != nil {
		t.Fatalf("suite run: %v", err)
	}
	for _, r := range All() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := r.Run(ctx, sharedSuite, &buf); err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", r.Name)
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("fig3"); !ok {
		t.Error("fig3 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown experiment found")
	}
	if len(All()) < 20 {
		t.Errorf("experiments: %d", len(All()))
	}
}

// TestShapes verifies the headline shapes the reproduction must preserve.
func TestShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	ctx := context.Background()
	if err := sharedSuite.Run(ctx); err != nil {
		t.Fatal(err)
	}
	s := sharedSuite

	// Shape 1: the GFW spike — peak published UDP/53 far above cleaned.
	peakRaw, peakClean := 0, 0
	for _, rec := range s.Svc.Records() {
		if rec.ResponsiveRaw[netmodel.UDP53] > peakRaw {
			peakRaw = rec.ResponsiveRaw[netmodel.UDP53]
		}
		if rec.ResponsiveClean[netmodel.UDP53] > peakClean {
			peakClean = rec.ResponsiveClean[netmodel.UDP53]
		}
	}
	if peakRaw < 3*peakClean || peakRaw == 0 {
		t.Errorf("GFW spike shape: published peak %d vs cleaned %d", peakRaw, peakClean)
	}

	// Shape 2: aliased prefixes exist at multiple lengths, /64s among
	// them, and the Trafficforce event added ICMP-only /64s. (The paper's
	// ">90 % are /64" needs the full-scale /64 tail; at test scale the
	// constant-size named CDN prefixes dominate — see EXPERIMENTS.md.)
	p64, tf := 0, 0
	all := s.Svc.AliasedPrefixes().Prefixes()
	for _, p := range all {
		if p.Bits() == 64 {
			p64++
			if as := s.World.Net.AS.Lookup(p.Addr()); as != nil && as.ASN == worldgen.ASNTrafficforce {
				tf++
			}
		}
	}
	if len(all) == 0 || p64 == 0 {
		t.Errorf("aliased lengths: %d total, %d /64", len(all), p64)
	}
	if tf == 0 {
		t.Error("Trafficforce /64s not detected after the February 2022 event")
	}

	// Shape 3: new sources add responsive addresses beyond the hitlist.
	res, err := s.NewSources(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnionAny.Len() == 0 {
		t.Fatal("new sources found nothing")
	}
	if res.UnionAny.IntersectCount(res.Hitlist.Any) == res.UnionAny.Len() {
		t.Error("new sources contributed nothing new")
	}

	// Shape 4: GFW-impacted addresses concentrate in Chinese ASes.
	impacted, err := s.Svc.InjectedOnly()
	if err != nil {
		t.Fatal(err)
	}
	if impacted.Len() > 0 {
		cn := 0
		impacted.Walk(func(a ip6.Addr) bool {
			if as := s.World.Net.AS.Lookup(a); as != nil && as.Country == "CN" {
				cn++
			}
			return true
		})
		if float64(cn) < 0.9*float64(impacted.Len()) {
			t.Errorf("GFW set not Chinese: %d/%d", cn, impacted.Len())
		}
	}

	// Shape 5: the cumulative responsive set far exceeds any snapshot.
	last := s.Svc.Records()[len(s.Svc.Records())-1]
	if s.Svc.EverResponsiveAnyLen() < 2*last.TotalClean {
		t.Errorf("cumulative %d vs current %d: churn shape missing",
			s.Svc.EverResponsiveAnyLen(), last.TotalClean)
	}
}

func TestOutputMentionsKeyFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	ctx := context.Background()
	var buf bytes.Buffer
	if err := Table5(ctx, sharedSuite, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AS4134") {
		t.Errorf("Table 5 must rank China Telecom Backbone first:\n%s", buf.String())
	}
}
