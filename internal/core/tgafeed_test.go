package core

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/tga"
	"hitlist6/internal/tga/sixtree"
)

// aliasNeighborFeed is a minimal CandidateFeed: it proposes addresses
// inside the tiny world's aliased /64 — which the alias rule answers for
// — plus a dark one, exercising the full generate → probe → feed back
// loop deterministically. (The region's own seed is purged by APD before
// it ever responds, so these candidates are genuinely new input.)
type aliasNeighborFeed struct{}

func (aliasNeighborFeed) Name() string { return "tga-test" }

func (aliasNeighborFeed) Candidates(day int, seeds *tga.SeedView) scan.TargetSource {
	if seeds.Len() == 0 {
		return scan.SliceSource(nil)
	}
	alias := ip6.MustParsePrefix("2001:100:a::/64")
	var cands []ip6.Addr
	for i := uint64(0); i < 8; i++ {
		cands = append(cands, alias.NthAddr(100+i))
	}
	cands = append(cands, ip6.MustParseAddr("2001:100::ddd")) // dark
	return scan.SliceSource(cands)
}

// TestTGAFeedLoop drives the closed TGA loop on the tiny world: the
// candidate round must probe deduplicated candidates, feed responders
// back as input under the feed's name, keep everything deterministic
// across worker counts, and leave the no-feed pipeline byte-identical
// (which TestShardedStoreMatchesReference separately pins to goldens).
func TestTGAFeedLoop(t *testing.T) {
	run := func(workers int) *Service {
		n, feeds := tinyWorld(t)
		cfg := DefaultConfig(1)
		cfg.ScanWorkers = workers
		cfg.TGAFeed = aliasNeighborFeed{}
		s := NewService(cfg, n, feeds, nil)
		runDays(t, s, weekly(0, 28))
		return s
	}

	s := run(1)
	recs := s.Records()
	sawCands, sawResp := false, false
	for _, rec := range recs {
		if rec.TGACandidates > 0 {
			sawCands = true
		}
		if rec.TGAResponsive > 0 {
			sawResp = true
		}
	}
	if !sawCands || !sawResp {
		t.Fatalf("TGA loop too quiet: candidates=%v responders=%v", sawCands, sawResp)
	}
	if s.InputByFeed()["tga-test"] == 0 {
		t.Error("no TGA responders ingested under the feed name")
	}
	// The responders joined the active window: the aliased /64 is in the
	// alias filter, so they are admitted only until APD detects the
	// prefix — but input accounting must have seen them.
	if s.Funnel().Input <= 5 {
		t.Errorf("input funnel did not grow with TGA feedback: %+v", s.Funnel())
	}

	// Candidates are deduplicated against input before probing: a second
	// scan must not re-probe previously ingested responders, so per-scan
	// candidate counts shrink once responders are absorbed.
	first, last := recs[0], recs[len(recs)-1]
	if first.TGACandidates == 0 || last.TGACandidates >= first.TGACandidates {
		t.Errorf("dedup did not shrink candidate rounds: first=%d last=%d",
			first.TGACandidates, last.TGACandidates)
	}

	// Bit-identical across worker counts, like every other output.
	base := stripShardTiming(recs)
	for _, workers := range []int{2, 8} {
		got := stripShardTiming(run(workers).Records())
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: TGA-fed records diverge from serial run", workers)
		}
	}
}

// TestTGASeedViewSharesUnchangedShards pins the tentpole invariant of
// the incremental TGA pipeline, mirroring the serve layer's
// TestServePublishSharesUnchangedShards: successive rounds' seed views
// pointer-share the spans of shards whose membership did not move, and
// only shards that gained responders get a fresh span.
func TestTGASeedViewSharesUnchangedShards(t *testing.T) {
	sliceShared := func(a, b []ip6.Addr) bool {
		return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
	}

	n, feeds := tinyWorld(t)
	cfg := DefaultConfig(1)
	cfg.TGAFeed = aliasNeighborFeed{}
	s := NewService(cfg, n, feeds, nil)

	runDays(t, s, weekly(0, 56))
	prev := s.tgaView
	if prev == nil || prev.Len() == 0 {
		t.Fatal("no seed view frozen after warm-up rounds")
	}
	prevView := s.tgaView

	// Late steady-state scans: the responsive world has been absorbed, so
	// most shards' columns hold still and their spans must be shared, not
	// re-frozen. (Some shards may still dirty — the alias region answers
	// forever — so assert sharing per clean shard rather than globally.)
	runDays(t, s, weekly(63, 63))
	cur := s.tgaView
	if cur == prev {
		t.Fatal("freeze did not produce a new view object")
	}
	shared, refrozen := 0, 0
	for sh := 0; sh < ip6.AddrShards; sh++ {
		a, b := prev.Shard(sh), cur.Shard(sh)
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		if sliceShared(a, b) {
			shared++
		} else {
			refrozen++
		}
	}
	if shared == 0 {
		t.Errorf("steady-state round shared no spans (refrozen=%d)", refrozen)
	}
	rec := s.Records()[len(s.Records())-1]
	if rec.TGARefrozenShards != refrozen {
		t.Errorf("TGARefrozenShards=%d, want %d", rec.TGARefrozenShards, refrozen)
	}
	// The view wrapper is rebuilt per round but reads the set's columns.
	if s.tgaView == prevView {
		t.Error("seed view object not refreshed")
	}
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if col, _ := s.everRespAny.Column(sh); !tga.SameSpan(s.tgaView.Shard(sh), col) {
			t.Fatalf("view shard %d does not wrap the frozen span", sh)
		}
	}
}

// TestTGAStreamerFeedAdapter wires a real streaming generator through
// tga.CandidateFeed into the service, proving the adapter satisfies
// core.CandidateFeed and the loop runs (6Tree expands the web /64's two
// seeds into neighbor candidates).
func TestTGAStreamerFeedAdapter(t *testing.T) {
	n, feeds := tinyWorld(t)
	cfg := DefaultConfig(1)
	cfg.TGAFeed = tga.CandidateFeed{Gen: sixtree.New(sixtree.DefaultConfig()), Budget: 512}
	s := NewService(cfg, n, feeds, nil)
	runDays(t, s, weekly(0, 28))

	cands := 0
	for _, rec := range s.Records() {
		cands += rec.TGACandidates
	}
	if cands == 0 {
		t.Fatal("6Tree candidate feed generated nothing")
	}
}

// errFeedDown is the failure failingFeed injects.
var errFeedDown = errors.New("candidate feed down")

// failingFeed is aliasNeighborFeed whose candidate stream fails midway on
// failDay. It keeps the feed's name, so a checkpoint taken with it
// resumes under the plain feed.
type failingFeed struct {
	aliasNeighborFeed
	failDay int
}

func (f failingFeed) Candidates(day int, seeds *tga.SeedView) scan.TargetSource {
	src := f.aliasNeighborFeed.Candidates(day, seeds)
	if day != f.failDay {
		return src
	}
	return &failAfter{src: src, left: 3}
}

// failAfter delivers left addresses of src, then fails.
type failAfter struct {
	src  scan.TargetSource
	left int
}

func (f *failAfter) Next(buf []ip6.Addr) (int, error) {
	if f.left == 0 {
		return 0, errFeedDown
	}
	n, err := f.src.Next(buf[:min(len(buf), f.left)])
	f.left -= n
	return n, err
}

// dirBytes reads every file under dir, keyed by its relative path.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTGAFeedFailureHaltsService pins the fail-closed contract of a
// half-applied scan: a TGA round that fails after the digest applied
// leaves the scan with no record, so the next RunScan and Checkpoint
// return that error and write nothing — the previous checkpoint stays
// the head — and Resume from it reproduces an uninterrupted run.
func TestTGAFeedFailureHaltsService(t *testing.T) {
	days := weekly(0, 56)
	const k = 4 // scans completed before the failing one
	cfg := DefaultConfig(1)
	cfg.TGAFeed = aliasNeighborFeed{}
	n, feeds := tinyWorld(t)
	ref := NewService(cfg, n, feeds, nil)
	runDays(t, ref, days)

	scratch := t.TempDir()
	ckdir := filepath.Join(scratch, "ckpt")
	failing := cfg
	failing.TGAFeed = failingFeed{failDay: days[k]}
	n1, feeds1 := tinyWorld(t)
	s := NewService(failing, n1, feeds1, nil)
	runDays(t, s, days[:k])
	if err := s.Checkpoint(ckdir); err != nil {
		t.Fatal(err)
	}
	head := dirBytes(t, scratch)

	ctx := context.Background()
	if _, err := s.RunScan(ctx, days[k]); !errors.Is(err, errFeedDown) {
		t.Fatalf("failing TGA round: err = %v, want %v", err, errFeedDown)
	}
	if _, err := s.RunScan(ctx, days[k+1]); !errors.Is(err, errFeedDown) {
		t.Fatalf("scan after a half-applied one: err = %v, want the halting error", err)
	}
	if err := s.Checkpoint(ckdir); !errors.Is(err, errFeedDown) {
		t.Fatalf("checkpoint after a half-applied scan: err = %v, want the halting error", err)
	}
	if got := dirBytes(t, scratch); !reflect.DeepEqual(got, head) {
		t.Fatal("a refused checkpoint changed the checkpoint directory")
	}
	if len(s.Records()) != k {
		t.Fatalf("%d records after the failed scan, want %d", len(s.Records()), k)
	}

	n2, feeds2 := tinyWorld(t)
	s2, err := Resume(ckdir, cfg, n2, feeds2, nil)
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, s2, days[k:])
	// Restored records equal the uninterrupted run's whole, TGA counters
	// included, but for the wall-clock shard profile, which is not
	// persisted. A resumed service has no previous seed view, so its
	// first round counts every shard refrozen: the scans after the head
	// match in full but for that count.
	got, want := stripShardTiming(s2.Records()), stripShardTiming(ref.Records())
	if len(got) != len(want) {
		t.Fatalf("resumed run has %d records, uninterrupted %d", len(got), len(want))
	}
	for i := range want {
		g, w := *got[i], *want[i]
		if i < k {
			w.ShardStats = nil
		} else {
			g.TGARefrozenShards, w.TGARefrozenShards = 0, 0
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("scan %d after resume: %+v, uninterrupted %+v", i, g, w)
		}
	}
	if want[k-1].TGACandidates == 0 {
		t.Fatal("the last restored record has no TGA candidates: the counters' round trip proves nothing")
	}
	if want[k].TGACandidates == 0 {
		t.Fatal("the failing day's round had no candidates — the failure never fired mid-round")
	}
}

// TestTGAFeedbackSource pins the TGA round's responder sink and its
// feedback order with hand-made batches: every shard's results, target
// by target and protocol by protocol, cut into batches of 7 results, so
// one target's protocols straddle batch boundaries, with successes on
// none, one or several protocols. The shards are fed concurrently, each
// in order, as the engine delivers them. Every responder appears once in
// the feedback, and the feedback is globally ascending.
func TestTGAFeedbackSource(t *testing.T) {
	r := rng.NewStream(23, "tga-feedback-source")
	protos := []netmodel.Protocol{netmodel.ICMP, netmodel.TCP443, netmodel.TCP80, netmodel.UDP443, netmodel.UDP53}
	const batchSize = 7
	var results [ip6.AddrShards][]scan.Result
	var want []ip6.Addr
	straddled, multi := 0, 0
	for i := 0; i < 3000; i++ {
		a := ip6.AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()>>40, r.Uint64())
		sh := ip6.ShardOf(a)
		first, hits := len(results[sh]), 0
		for _, p := range protos {
			ok := r.Uint64()%3 == 0
			if ok {
				hits++
			}
			results[sh] = append(results[sh], scan.Result{Target: a, Proto: p, Success: ok})
		}
		if hits > 0 {
			want = append(want, a)
			if first/batchSize != (len(results[sh])-1)/batchSize {
				straddled++
			}
		}
		if hits > 1 {
			multi++
		}
	}
	if straddled == 0 || multi == 0 {
		t.Fatalf("no responder straddles a batch (%d) or succeeds on several protocols (%d)", straddled, multi)
	}
	ip6.SortAddrs(want)

	var resp tgaResponders
	var wg sync.WaitGroup
	for sh := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq, rest := 0, results[sh]; len(rest) > 0; seq++ {
				n := min(batchSize, len(rest))
				if err := resp.sink(&scan.Batch{Shard: sh, Seq: seq, Results: rest[:n]}); err != nil {
					t.Error(err)
				}
				rest = rest[n:]
			}
		}()
	}
	wg.Wait()
	if got := resp.sorted(); !slices.Equal(got, want) {
		t.Fatalf("feedback: %d addresses, want %d distinct responders in ascending order", len(got), len(want))
	}
}
