package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/scan"
	"hitlist6/internal/sources"
	"hitlist6/internal/worldgen"
	"hitlist6/internal/yarrp"
)

// generatedWorld builds a miniature generated world plus its feeds; each
// call is independent so runs can be compared for determinism.
func generatedWorld(t testing.TB, seed uint64) (*netmodel.Network, []*sources.Feed) {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TestParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	tracer := yarrp.New(w.Net, yarrp.Config{Seed: seed})
	return w.Net, w.BuildFeeds(tracer)
}

// stripShardTiming normalizes the throughput-telemetry parts of the
// records before determinism comparisons: the phase clock and the
// per-shard Nanos measure the machine (wall clock) and Batches the
// batch-size configuration, so none is a deterministic scan output.
// Per-shard probes, responses and successes stay — they must be
// bit-identical like everything else.
func stripShardTiming(recs []*ScanRecord) []*ScanRecord {
	for _, r := range recs {
		r.Phases = Phases{}
		for i := range r.ShardStats {
			r.ShardStats[i].Nanos = 0
			r.ShardStats[i].Batches = 0
		}
	}
	return recs
}

// TestDigestDeterministicAcrossWorkersAndBatches is the streaming
// engine's core guarantee: scan records and snapshots are bit-identical
// no matter how many workers probe the shards or how the batches are cut.
func TestDigestDeterministicAcrossWorkersAndBatches(t *testing.T) {
	run := func(workers, batch int) ([]*ScanRecord, map[int]*Snapshot) {
		n, feeds := tinyWorld(t)
		cfg := DefaultConfig(1)
		cfg.GFWFilterFromDay = 150
		cfg.SnapshotDays = []int{14, 70, 180}
		cfg.ScanWorkers = workers
		cfg.ScanBatchSize = batch
		s := NewService(cfg, n, feeds, nil)
		runDays(t, s, weekly(0, 196))
		return stripShardTiming(s.Records()), s.Snapshots()
	}

	baseRecs, baseSnaps := run(1, 1)
	if len(baseRecs) == 0 || len(baseSnaps) != 3 {
		t.Fatalf("baseline run: %d records, %d snapshots", len(baseRecs), len(baseSnaps))
	}
	// The baseline run must exercise the interesting paths, or equality
	// proves nothing.
	sawChurn, sawInjected := false, false
	for _, rec := range baseRecs {
		if rec.FirstResp+rec.RespAgain+rec.Unresp > 0 {
			sawChurn = true
		}
		if rec.InjectedDNS > 0 {
			sawInjected = true
		}
	}
	if !sawChurn || !sawInjected {
		t.Fatalf("baseline run too quiet: churn=%v injected=%v", sawChurn, sawInjected)
	}

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, batch := range []int{0, 3, 64} {
			recs, snaps := run(workers, batch)
			if !reflect.DeepEqual(baseRecs, recs) {
				t.Errorf("workers=%d batch=%d: records differ from workers=1 batch=1", workers, batch)
				for i := range baseRecs {
					if i < len(recs) && !reflect.DeepEqual(baseRecs[i], recs[i]) {
						t.Errorf("  first divergence at record %d:\n  base: %+v\n  got:  %+v",
							i, *baseRecs[i], *recs[i])
						break
					}
				}
			}
			if !reflect.DeepEqual(baseSnaps, snaps) {
				t.Errorf("workers=%d batch=%d: snapshots differ", workers, batch)
			}
		}
	}
}

// TestDigestDeterministicOnGeneratedWorld repeats the check on a
// generated world — bigger active sets, real feed churn, APD rounds —
// with a compressed schedule.
func TestDigestDeterministicOnGeneratedWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-world determinism in -short mode")
	}
	run := func(workers, batch int) []*ScanRecord {
		w, feeds := generatedWorld(t, 23)
		cfg := DefaultConfig(23)
		cfg.ScanWorkers = workers
		cfg.ScanBatchSize = batch
		s := NewService(cfg, w, feeds, nil)
		for d := 0; d <= 140; d += 14 {
			if _, err := s.RunScan(context.Background(), d); err != nil {
				t.Fatal(err)
			}
		}
		return stripShardTiming(s.Records())
	}
	base := run(1, 2)
	if last := base[len(base)-1]; last.TotalClean == 0 {
		t.Fatal("generated world produced no responsive addresses")
	}
	got := run(runtime.GOMAXPROCS(0), 128)
	if !reflect.DeepEqual(base, got) {
		t.Error("records diverge between serial/tiny-batch and parallel/big-batch runs")
	}
}

// TestDigestSinkIsPureAccumulation pins the abort-atomicity contract: the
// streaming sink folds batches into shard-local digests only, so a scan
// that errors or is cancelled mid-stream leaves the service — tracker
// evidence, target liveness — exactly as it was. State changes happen
// solely in finalizeDigest, which runs only for completed scans. The sink
// is driven by a real stream over the day's scan set.
func TestDigestSinkIsPureAccumulation(t *testing.T) {
	n, feeds := tinyWorld(t)
	// fresh is admitted on day 0 but only comes up on day 7, so its
	// tracker evidence is new at the day-7 scan.
	fresh := ip6.MustParseAddr("2001:100::99")
	n.AddHost(&netmodel.Host{Addr: fresh, Protos: netmodel.ProtoSetOf(netmodel.ICMP),
		BornDay: 7, DeathDay: netmodel.Forever, UptimePermille: 1000, MTU: 1500})
	feeds = append(feeds, sources.Recurring("fresh", 0, netmodel.Forever, func(int) []ip6.Addr {
		return []ip6.Addr{fresh}
	}))
	s := NewService(DefaultConfig(1), n, feeds, nil)
	runDays(t, s, []int{0})

	web := ip6.MustParseAddr("2001:100::80")
	st, ok := lookupActive(s, web)
	if !ok {
		t.Fatal("web host not active")
	}
	if _, ok := lookupActive(s, fresh); !ok {
		t.Fatal("fresh host not active")
	}
	dayBefore := st.lastSuccessDay
	injBefore, anyBefore := s.Tracker().InjectedSeenLen(), s.EverResponsiveAnyLen()

	s.buildScanSet(7, &ScanRecord{})
	digests := make([]shardDigest, ip6.AddrShards)
	if _, err := s.mainScanner.StreamFrom(context.Background(), scan.ShardSlices(s.active.addrs), s.cfg.Protocols, 7, s.digestSink(digests)); err != nil {
		t.Fatal(err)
	}

	// The sink alone must not have touched service state.
	if st, _ := lookupActive(s, web); st.lastSuccessDay != dayBefore {
		t.Errorf("sink bumped lastSuccessDay: %d", st.lastSuccessDay)
	}
	if inj, ever := s.Tracker().InjectedSeenLen(), s.EverResponsiveAnyLen(); inj != injBefore || ever != anyBefore {
		t.Errorf("sink mutated evidence: injected %d→%d ever-responsive %d→%d", injBefore, inj, anyBefore, ever)
	}

	// Finalize applies it.
	s.finalizeDigest(digests, 7, &ScanRecord{})
	if st, _ := lookupActive(s, web); st.lastSuccessDay != 7 {
		t.Errorf("finalize did not bump lastSuccessDay: %d", st.lastSuccessDay)
	}
	if ever := s.EverResponsiveAnyLen(); ever != anyBefore+1 {
		t.Errorf("finalize did not record evidence: ever-responsive %d→%d", anyBefore, ever)
	}
}

// updateRef regenerates the committed reference goldens. They were
// captured from the pre-sharded-store implementation (the serial
// map[Addr]*targetState bookkeeping loop) and pin the refactor to
// bit-identical records and snapshots; only regenerate them for a change
// that intentionally alters service outputs.
var updateRef = flag.Bool("update-ref", false, "regenerate testdata reference goldens")

// refSnapshot is the JSON shape of one snapshot in the golden file:
// every set rendered as sorted address strings so encoding is canonical.
type refSnapshot struct {
	Day           int                 `json:"day"`
	ResponsiveAny []string            `json:"responsiveAny"`
	Responsive    map[string][]string `json:"responsive"`
	Aliased       []string            `json:"aliased"`
}

type refGolden struct {
	Records   []*ScanRecord           `json:"records"`
	Snapshots map[string]*refSnapshot `json:"snapshots,omitempty"`
}

func setStrings(s ip6.Set) []string {
	out := make([]string, 0, s.Len())
	for _, a := range s.Sorted() {
		out = append(out, a.String())
	}
	return out
}

func goldenFrom(recs []*ScanRecord, snaps map[int]*Snapshot) *refGolden {
	g := &refGolden{Records: recs}
	if len(snaps) > 0 {
		g.Snapshots = make(map[string]*refSnapshot, len(snaps))
		for day, snap := range snaps {
			rs := &refSnapshot{
				Day:           snap.Day,
				ResponsiveAny: setStrings(snap.ResponsiveAny),
				Responsive:    make(map[string][]string, len(snap.Responsive)),
			}
			for p, set := range snap.Responsive {
				rs.Responsive[fmt.Sprint(int(p))] = setStrings(set)
			}
			for _, p := range snap.Aliased {
				rs.Aliased = append(rs.Aliased, p.String())
			}
			sort.Strings(rs.Aliased)
			g.Snapshots[fmt.Sprint(day)] = rs
		}
	}
	return g
}

// refTinyRun executes the hand-built-world reference scenario.
func refTinyRun(t testing.TB, workers, batch int) ([]*ScanRecord, map[int]*Snapshot) {
	t.Helper()
	n, feeds := tinyWorld(t)
	cfg := DefaultConfig(1)
	cfg.GFWFilterFromDay = 150
	cfg.SnapshotDays = []int{14, 70, 180}
	cfg.ScanWorkers = workers
	cfg.ScanBatchSize = batch
	s := NewService(cfg, n, feeds, nil)
	runDays(t, s, weekly(0, 196))
	return s.Records(), s.Snapshots()
}

// refGeneratedRun executes the generated-world reference scenario.
func refGeneratedRun(t testing.TB, workers, batch int) []*ScanRecord {
	t.Helper()
	w, feeds := generatedWorld(t, 23)
	cfg := DefaultConfig(23)
	cfg.ScanWorkers = workers
	cfg.ScanBatchSize = batch
	s := NewService(cfg, w, feeds, nil)
	for d := 0; d <= 140; d += 14 {
		if _, err := s.RunScan(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	return s.Records()
}

func refPath(name string) string { return filepath.Join("testdata", name) }

func writeGolden(t *testing.T, name string, g *refGolden) {
	t.Helper()
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(refPath(name), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func compareGolden(t *testing.T, name string, g *refGolden, label string) {
	t.Helper()
	want, err := os.ReadFile(refPath(name))
	if err != nil {
		t.Fatalf("reference golden missing (run with -update-ref to capture): %v", err)
	}
	got, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if string(got) == string(want) {
		return
	}
	// Locate the first diverging record for a readable failure.
	var ref refGolden
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatalf("%s: golden %s unreadable: %v", label, name, err)
	}
	for i := range ref.Records {
		if i >= len(g.Records) {
			t.Fatalf("%s: %s: only %d of %d reference records produced", label, name, len(g.Records), len(ref.Records))
		}
		if !reflect.DeepEqual(ref.Records[i], g.Records[i]) {
			t.Fatalf("%s: %s: first divergence at record %d:\n ref: %+v\n got: %+v",
				label, name, i, *ref.Records[i], *g.Records[i])
		}
	}
	t.Fatalf("%s: %s: snapshots diverge from pre-refactor reference", label, name)
}

// TestShardedStoreMatchesReference proves the sharded target store is an
// exact refactor: records and snapshots stay bit-identical to goldens
// captured from the pre-refactor serial implementation, across several
// worker-count settings (and a non-default batch size for good measure).
func TestShardedStoreMatchesReference(t *testing.T) {
	if *updateRef {
		recs, snaps := refTinyRun(t, 1, 1)
		writeGolden(t, "reference_tiny.json", goldenFrom(recs, snaps))
		writeGolden(t, "reference_generated.json", goldenFrom(refGeneratedRun(t, 1, 1), nil))
		t.Log("reference goldens regenerated")
		return
	}
	for _, workers := range []int{1, 2, 5, 8} {
		recs, snaps := refTinyRun(t, workers, 0)
		compareGolden(t, "reference_tiny.json", goldenFrom(recs, snaps), fmt.Sprintf("tiny workers=%d", workers))
	}
	if testing.Short() {
		t.Skip("generated-world reference comparison in -short mode")
	}
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0) + 2} {
		g := goldenFrom(refGeneratedRun(t, workers, 64), nil)
		compareGolden(t, "reference_generated.json", g, fmt.Sprintf("generated workers=%d", workers))
	}
}

// TestEverResponsiveMergedViews pins the merged accessors the experiment
// suite reads after the sharded-accumulator refactor.
func TestEverResponsiveMergedViews(t *testing.T) {
	n, feeds := tinyWorld(t)
	s := NewService(DefaultConfig(1), n, feeds, nil)
	runDays(t, s, weekly(0, 28))

	any := s.EverResponsiveAny()
	if any.Len() == 0 {
		t.Fatal("no cumulative responsive addresses")
	}
	perProto := 0
	for p := 0; p < netmodel.NumProtocols; p++ {
		set := s.EverResponsive(netmodel.Protocol(p))
		perProto += set.Len()
		for a := range set {
			if !any.Has(a) {
				t.Errorf("proto %d member %v missing from any-view", p, a)
			}
		}
	}
	if perProto < any.Len() {
		t.Errorf("per-proto views (%d) smaller than any-view (%d)", perProto, any.Len())
	}
	// Merged views are copies: mutating one must not corrupt the service.
	before := s.EverResponsiveAny().Len()
	for a := range any {
		any.Delete(a)
	}
	if s.EverResponsiveAny().Len() != before {
		t.Error("merged view shares storage with service state")
	}
}
