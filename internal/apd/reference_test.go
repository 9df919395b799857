package apd

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
)

// refSlotAddr is the per-slot draw the batched SlotAddrs replaced, kept
// verbatim as the reference: a per-bit child prefix, the full five-word
// seed hash, and the byte-wise RandomAddr.
func refSlotAddr(p ip6.Prefix, v byte, day int) ip6.Addr {
	sub := p.SubprefixOfNibble(v)
	r := rng.NewStreamSeed(rng.Mix(p.Addr().Hi(), p.Addr().Lo(), uint64(p.Bits()), uint64(v), uint64(day)) ^ slotSalt)
	return sub.RandomAddr(&r)
}

// TestSlotDrawMatchesReference pins the word-arithmetic slot draw to the
// reference for every subdividable prefix length — bit-unaligned ones,
// the 60–64 straddle of the two address words and candidates longer than
// /64 included.
func TestSlotDrawMatchesReference(t *testing.T) {
	r := rng.NewStream(11, "slot-draw")
	cases := 0
	for bits := 0; bits <= 124; bits++ {
		for i := 0; i < 64; i++ {
			base := ip6.AddrFromUint64s(r.Uint64(), r.Uint64())
			if i == 0 {
				// All-ones base: every prefix bit set right up to the boundary.
				base = ip6.AddrFromUint64s(^uint64(0), ^uint64(0))
			}
			p := ip6.PrefixFrom(base, bits)
			day := int(r.Uint64n(6000))
			got := SlotAddrs(p, day)
			for v := byte(0); v < 16; v++ {
				want := refSlotAddr(p, v, day)
				if got[v] != want {
					t.Fatalf("%v slot %d day %d: drew %v, reference %v", p, v, day, got[v], want)
				}
				if one := SlotAddr(p, v, day); one != want {
					t.Fatalf("%v slot %d day %d: SlotAddr %v, reference %v", p, v, day, one, want)
				}
				cases++
			}
		}
	}
	if cases < 100_000 {
		t.Fatalf("only %d cases", cases)
	}
}

// naiveDetector is the deliberately slow reference for Run: one
// reference slot draw and one ProbeOne per (slot, protocol), a map of
// histories, no sharding, no streaming.
type naiveDetector struct {
	s       *scan.Scanner
	cfg     Config
	history map[ip6.Prefix][]uint16
}

func (d *naiveDetector) run(candidates []ip6.Prefix, day int) (aliased []ip6.Prefix, dets map[ip6.Prefix]Detection, probes int) {
	dets = make(map[ip6.Prefix]Detection)
	set := ip6.NewPrefixSet()
	for _, p := range candidates {
		var bitmap uint16
		for v := byte(0); v < 16; v++ {
			a := refSlotAddr(p, v, day)
			for _, proto := range d.cfg.Protocols {
				r := d.s.ProbeOne(a, proto, day)
				probes += int(r.Attempts)
				if r.Success {
					bitmap |= 1 << v
				}
			}
		}
		hist := d.history[p]
		merged := bitmap
		for i := len(hist) - 1; i >= 0 && i >= len(hist)-d.cfg.MergeScans; i-- {
			merged |= hist[i]
		}
		d.history[p] = append(hist, bitmap)
		dets[p] = Detection{Prefix: p, Bitmap: bitmap, Merged: merged, Aliased: merged == 0xffff}
		if merged == 0xffff {
			set.Add(p)
		}
	}
	return set.Prefixes(), dets, probes
}

// roundCandidates is a candidate list that changes every round: a fixed
// core (aliased, sparse, BGP, longer than /64), a sliding window of /64s
// that enter and leave — so history rows are created, revisited after a
// gap and left behind — and the core's first entry twice on odd rounds.
func roundCandidates(round int) []ip6.Prefix {
	cands := []ip6.Prefix{
		ip6.MustParsePrefix("2600:9000:1::/48"),
		ip6.MustParsePrefix("2001:100:0:aaaa::/64"),
		ip6.MustParsePrefix("2001:100:0:1::/64"),
		ip6.MustParsePrefix("2600:9000::/28"),
		ip6.MustParsePrefix("2001:100::/32"),
		ip6.MustParsePrefix("2600:9000:1:0:8000::/65"),
		ip6.MustParsePrefix("2600:9000:1:7:1:2:3::/112"),
		ip6.MustParsePrefix("2001:100:0:aaaa::ff00/120"),
		ip6.MustParsePrefix("2001:100:0:aaaa::fff0/124"),
	}
	inside := ip6.MustParsePrefix("2600:9000:1::/48")
	outside := ip6.MustParsePrefix("2001:100:5::/48")
	for i := 0; i < 40; i++ {
		n := uint64(round*13 + i)
		cands = append(cands, inside.Child(16, n%97), outside.Child(16, n))
	}
	if round%2 == 1 {
		cands = append(cands, cands[0])
	}
	return cands
}

// TestDetectorMatchesNaiveReference runs the streamed detector and the
// naive one side by side over consecutive rounds with a lossy scanner
// (so Attempts vary and the merge window matters), across engine shapes
// including a fault hook that kills a worker mid-shard every round.
func TestDetectorMatchesNaiveReference(t *testing.T) {
	n := testWorld(t)
	n.Seal()
	base := scan.DefaultConfig(5)
	base.LossRate = 0.7 // with one retry, half the probes go unanswered
	base.BatchSize = 8  // several batches per shard, so "mid-shard" exists

	// The hook kills whichever worker first fills a batch after the round
	// armed it: one death per round, mid-shard, whatever the scheduling.
	var armed atomic.Bool
	var kills atomic.Int64
	killOne := func(fp scan.FaultPoint) error {
		if fp.Batch >= 0 && armed.CompareAndSwap(true, false) {
			kills.Add(1)
			return scan.ErrWorkerKilled
		}
		return nil
	}
	for _, tc := range []struct {
		name    string
		workers int
		queue   int
		hook    scan.FaultHook
	}{
		{"workers=1", 1, 0, nil},
		{"workers=2", 2, 0, nil},
		{"workers=8", 8, 0, nil},
		{"sinkqueue=2", 4, 2, nil},
		{"kill-mid-shard", 2, 0, killOne},
		{"kill-mid-shard-sinkqueue=2", 8, 2, killOne},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Workers, cfg.SinkQueueDepth, cfg.FaultHook = tc.workers, tc.queue, tc.hook
			dcfg := DefaultConfig()
			d := NewDetector(scan.New(n, cfg), dcfg)
			ref := &naiveDetector{s: scan.New(n, base), cfg: dcfg, history: make(map[ip6.Prefix][]uint16)}
			kills.Store(0)
			detected, mergeMattered := 0, 0
			for round := 0; round < 10; round++ {
				cands, day := roundCandidates(round), 100+round*3
				armed.Store(tc.hook != nil)
				res, err := d.Run(context.Background(), cands, day)
				if err != nil {
					t.Fatal(err)
				}
				aliased, dets, probes := ref.run(cands, day)
				if got := res.Aliased.Prefixes(); !reflect.DeepEqual(got, aliased) {
					t.Fatalf("round %d: aliased %v, reference %v", round, got, aliased)
				}
				detected += len(aliased)
				for _, det := range dets {
					if det.Aliased && det.Bitmap != 0xffff {
						mergeMattered++
					}
				}
				if got := res.Detections(); !reflect.DeepEqual(got, dets) {
					for p, want := range dets {
						if got[p] != want {
							t.Errorf("round %d %v: detection %+v, reference %+v", round, p, got[p], want)
						}
					}
					t.Fatalf("round %d: %d detections, reference %d", round, len(got), len(dets))
				}
				if res.Probes != probes {
					t.Fatalf("round %d: %d probes, reference %d", round, res.Probes, probes)
				}
			}
			if detected == 0 || mergeMattered == 0 {
				t.Errorf("%d detections, %d of them owed to the merge window: the rounds exercise too little", detected, mergeMattered)
			}
			if tc.hook != nil && kills.Load() != 10 {
				t.Errorf("fault hook killed %d workers mid-shard, want one per round", kills.Load())
			}
		})
	}
}

// TestHistoryRoundtrip pins the flat history rows to the checkpoint
// contract: the export lists prefixes in first-seen order, an imported
// detector exports the same rows and continues exactly like the
// exporter, and so does one that imported the rows sorted by prefix (the
// order older checkpoints wrote). A prefix listed twice is refused.
func TestHistoryRoundtrip(t *testing.T) {
	n := testWorld(t)
	cfg := scan.DefaultConfig(5)
	cfg.LossRate = 0.5
	ctx := context.Background()
	live := NewDetector(scan.New(n, cfg), DefaultConfig())
	var firstSeen []ip6.Prefix
	seen := make(map[ip6.Prefix]bool)
	for round := 0; round < 6; round++ {
		cands := roundCandidates(round)
		if _, err := live.Run(ctx, cands, round); err != nil {
			t.Fatal(err)
		}
		for _, p := range cands {
			if !seen[p] {
				seen[p] = true
				firstSeen = append(firstSeen, p)
			}
		}
	}
	exported := live.ExportHistory()
	if len(exported) != len(firstSeen) {
		t.Fatalf("%d rows exported, %d prefixes seen", len(exported), len(firstSeen))
	}
	for i, e := range exported {
		if len(e.Counts) == 0 || len(e.Counts) > 4 {
			t.Fatalf("%v: %d rounds exported", e.Prefix, len(e.Counts))
		}
		if e.Prefix != firstSeen[i] {
			t.Fatalf("row %d is %v, first-seen order has %v", i, e.Prefix, firstSeen[i])
		}
	}

	resumed := NewDetector(scan.New(n, cfg), DefaultConfig())
	if err := resumed.ImportHistory(exported); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.ExportHistory(), exported) {
		t.Fatal("import → export changed the history")
	}
	sorted := slices.Clone(exported)
	slices.SortFunc(sorted, func(a, b HistoryEntry) int { return ip6.ComparePrefix(a.Prefix, b.Prefix) })
	if slices.EqualFunc(sorted, exported, func(a, b HistoryEntry) bool { return a.Prefix == b.Prefix }) {
		t.Fatal("first-seen order is already prefix order: the sorted import proves nothing")
	}
	fromSorted := NewDetector(scan.New(n, cfg), DefaultConfig())
	if err := fromSorted.ImportHistory(sorted); err != nil {
		t.Fatal(err)
	}

	for round := 6; round < 9; round++ {
		want, err := live.Run(ctx, roundCandidates(round), round)
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]*Detector{"resumed": resumed, "prefix-sorted import": fromSorted} {
			got, err := d.Run(ctx, roundCandidates(round), round)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Detections(), got.Detections()) {
				t.Fatalf("round %d: %s detector diverged", round, name)
			}
		}
	}
	if !reflect.DeepEqual(resumed.ExportHistory(), live.ExportHistory()) {
		t.Fatal("resumed detector's rows left first-seen order")
	}

	dup := append(slices.Clone(exported[:3]), exported[1])
	before := resumed.ExportHistory()
	if err := resumed.ImportHistory(dup); err == nil {
		t.Fatal("history listing a prefix twice imported")
	}
	if !reflect.DeepEqual(resumed.ExportHistory(), before) {
		t.Fatal("refused import changed the detector")
	}
}

// TestSteadyRoundAllocsIndependentOfCandidates is the allocation guard
// of the streamed round: once the queue and the history rows exist, a
// round allocates per stream and per shard, never per candidate.
func TestSteadyRoundAllocsIndependentOfCandidates(t *testing.T) {
	n := testWorld(t)
	n.Seal()
	cfg := scan.DefaultConfig(1)
	cfg.Workers = 1
	roundAllocs := func(count int) float64 {
		d := NewDetector(scan.New(n, cfg), DefaultConfig())
		base := ip6.MustParsePrefix("2001:100:7::/48")
		cands := make([]ip6.Prefix, count)
		for i := range cands {
			cands[i] = base.Child(16, uint64(i))
		}
		day := 0
		run := func() {
			if _, err := d.Run(context.Background(), cands, day); err != nil {
				t.Fatal(err)
			}
			day++
		}
		// Two warm-up rounds: the first grows the queue and creates the
		// rows, the second absorbs day-to-day variation in shard sizes.
		run()
		run()
		return testing.AllocsPerRun(10, run)
	}
	small, large := roundAllocs(256), roundAllocs(2048)
	t.Logf("allocs/round: %v at 256 candidates, %v at 2048", small, large)
	// Slack for the queue's slices still growing now and then: shard sizes
	// vary with the day's draws.
	if large > small+16 {
		t.Errorf("allocs grow with the candidate count: %v at 256, %v at 2048", small, large)
	}
}
