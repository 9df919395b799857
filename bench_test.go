// Package hitlist6bench regenerates every evaluation artifact of the paper
// as a benchmark: one testing.B target per table and figure, plus
// throughput benches for the substrates (world generation, a full service
// scan, target generation, alias detection).
//
// Artifact benches run the corresponding experiment end to end at a
// reduced world scale and report domain metrics alongside time/op, so
// `go test -bench=. -benchmem` doubles as the reproduction smoke run.
package hitlist6bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"hitlist6/internal/apd"
	"hitlist6/internal/ckpt"
	"hitlist6/internal/core"
	"hitlist6/internal/dnswire"
	"hitlist6/internal/experiments"
	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/serve"
	"hitlist6/internal/sources"
	"hitlist6/internal/tga"
	"hitlist6/internal/tga/dc"
	"hitlist6/internal/tga/sixgan"
	"hitlist6/internal/tga/sixgraph"
	"hitlist6/internal/tga/sixtree"
	"hitlist6/internal/tga/sixveclm"
	"hitlist6/internal/worldgen"
	"hitlist6/internal/yarrp"
)

// benchSuite is shared across artifact benchmarks so the four-year service
// run is paid once per binary invocation.
var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.Params{
			Seed: 42, Scale: 1.0 / 5000, TailASes: 64, ScanStride: 2,
		})
		benchErr = benchSuite.Run(context.Background())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

func benchArtifact(b *testing.B, name string) {
	s := suite(b)
	r, ok := experiments.ByName(name)
	if !ok {
		b.Fatalf("unknown experiment %s", name)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := r.Run(ctx, s, &buf); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(buf.Len()), "output-bytes")
	}
}

// One benchmark per paper artifact.

func BenchmarkFigure1(b *testing.B)  { benchArtifact(b, "fig1") }
func BenchmarkFigure2(b *testing.B)  { benchArtifact(b, "fig2") }
func BenchmarkFigure3(b *testing.B)  { benchArtifact(b, "fig3") }
func BenchmarkFigure4(b *testing.B)  { benchArtifact(b, "fig4") }
func BenchmarkFigure5(b *testing.B)  { benchArtifact(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchArtifact(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchArtifact(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchArtifact(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { benchArtifact(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchArtifact(b, "fig10") }
func BenchmarkTable1(b *testing.B)   { benchArtifact(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchArtifact(b, "table2") }
func BenchmarkTable3(b *testing.B)   { benchArtifact(b, "table3") }
func BenchmarkTable4(b *testing.B)   { benchArtifact(b, "table4") }
func BenchmarkTable5(b *testing.B)   { benchArtifact(b, "table5") }

// In-text experiments.

func BenchmarkDNSEval(b *testing.B)      { benchArtifact(b, "dnseval") }
func BenchmarkFingerprints(b *testing.B) { benchArtifact(b, "fingerprints") }
func BenchmarkDomains(b *testing.B)      { benchArtifact(b, "domains") }
func BenchmarkEUI64(b *testing.B)        { benchArtifact(b, "eui64") }
func BenchmarkAblations(b *testing.B)    { benchArtifact(b, "ablations") }

// Substrate benches: how expensive are the moving parts themselves?

func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := worldgen.Generate(worldgen.Params{
			Seed: uint64(i + 1), Scale: 1.0 / 10000, TailASes: 48, ScanIntervalDays: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(w.Net.NumHosts()), "hosts")
	}
}

// BenchmarkServiceScan measures one full pipeline iteration (feeds, APD,
// scan, classification) on a fresh miniature world.
func BenchmarkServiceScan(b *testing.B) {
	w, err := worldgen.Generate(worldgen.Params{
		Seed: 9, Scale: 1.0 / 10000, TailASes: 48, ScanIntervalDays: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	tracer := yarrp.New(w.Net, yarrp.Config{Seed: 9})
	feeds := w.BuildFeeds(tracer)
	svc := core.NewService(core.DefaultConfig(9), w.Net, feeds, w.Blocklist)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := svc.RunScan(ctx, i*7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rec.ProbesSent), "probes/scan")
	}
}

// BenchmarkAPDRound measures one alias-detection round shaped like the
// service's: every announced prefix of a 1/4000 world plus 200 /64s the
// detector has not seen before, on a new day each round.
func BenchmarkAPDRound(b *testing.B) {
	w, err := worldgen.Generate(worldgen.Params{
		Seed: 42, Scale: 1.0 / 4000, TailASes: 240, ScanIntervalDays: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	bgp := w.Net.AS.AnnouncedPrefixes()
	r := rng.NewStream(42, "bench-apd-fresh")
	d := apd.NewDetector(scan.New(w.Net, scan.DefaultConfig(42)), apd.DefaultConfig())
	cands := append([]ip6.Prefix(nil), bgp...)
	ctx := context.Background()
	probes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands = cands[:len(bgp)]
		for j := 0; j < 200; j++ {
			cands = append(cands, ip6.Slash64(bgp[r.Intn(len(bgp))].RandomAddr(r)))
		}
		res, err := d.Run(ctx, cands, worldgen.EndDay-7*(i%200))
		if err != nil {
			b.Fatal(err)
		}
		probes += res.Probes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cands)), "ns/candidate")
	b.ReportMetric(float64(probes)/float64(b.N), "probes/round")
}

// BenchmarkScanEngineStream measures the raw streaming scan engine: a
// five-protocol sweep over the announced space, consumed batch by batch
// without ever materializing the cross product.
func BenchmarkScanEngineStream(b *testing.B) {
	w, err := worldgen.Generate(worldgen.Params{
		Seed: 17, Scale: 1.0 / 10000, TailASes: 48, ScanIntervalDays: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewStream(17, "bench-stream-targets")
	prefixes := w.Net.AS.AnnouncedPrefixes()
	targets := make([]ip6.Addr, 4096)
	for i := range targets {
		targets[i] = prefixes[r.Intn(len(prefixes))].RandomAddr(r)
	}
	protos := []netmodel.Protocol{netmodel.ICMP, netmodel.TCP443, netmodel.TCP80, netmodel.UDP443, netmodel.UDP53}
	s := scan.New(w.Net, scan.DefaultConfig(17))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var results atomic.Uint64 // sinks run concurrently across shards
		stats, err := s.StreamFrom(ctx, scan.SliceSource(targets), protos, 100, func(batch *scan.Batch) error {
			results.Add(uint64(len(batch.Results)))
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(stats.Batches), "batches")
		b.ReportMetric(float64(results.Load()), "results")
	}
}

// BenchmarkFleetScan is the engine's worker-scaling row: the same
// five-protocol sweep with 1, 2, 4 and 8 probe workers taking shards off
// the one cost-ordered queue. More workers must never be slower than
// one; on a multi-core runner wall-clock time should fall with them.
func BenchmarkFleetScan(b *testing.B) {
	w, err := worldgen.Generate(worldgen.Params{
		Seed: 17, Scale: 1.0 / 10000, TailASes: 48, ScanIntervalDays: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewStream(17, "bench-fleet-targets")
	prefixes := w.Net.AS.AnnouncedPrefixes()
	targets := make([]ip6.Addr, 8192)
	for i := range targets {
		targets[i] = prefixes[r.Intn(len(prefixes))].RandomAddr(r)
	}
	protos := []netmodel.Protocol{netmodel.ICMP, netmodel.TCP443, netmodel.TCP80, netmodel.UDP443, netmodel.UDP53}
	ctx := context.Background()
	for _, nodes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			cfg := scan.DefaultConfig(17)
			cfg.Workers = nodes
			s := scan.New(w.Net, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var results atomic.Uint64
				_, err := s.StreamFrom(ctx, scan.SliceSource(targets), protos, 100,
					func(batch *scan.Batch) error {
						results.Add(uint64(len(batch.Results)))
						return nil
					})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(results.Load()), "results")
			}
		})
	}
}

// BenchmarkHitlistSource measures scanning straight off a .hl6 binary
// hitlist: the mmap-backed sharded source against the same five-protocol
// sweep BenchmarkScanEngineStream runs from a slice — the per-scan cost
// of the external-memory target path.
func BenchmarkHitlistSource(b *testing.B) {
	w, err := worldgen.Generate(worldgen.Params{
		Seed: 17, Scale: 1.0 / 10000, TailASes: 48, ScanIntervalDays: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewStream(17, "bench-hitlist-targets")
	prefixes := w.Net.AS.AnnouncedPrefixes()
	targets := make([]ip6.Addr, 4096)
	for i := range targets {
		targets[i] = prefixes[r.Intn(len(prefixes))].RandomAddr(r)
	}
	path := filepath.Join(b.TempDir(), "bench.hl6")
	if err := hlfile.Write(path, targets); err != nil {
		b.Fatal(err)
	}
	reader, err := hlfile.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer reader.Close()
	protos := []netmodel.Protocol{netmodel.ICMP, netmodel.TCP443, netmodel.TCP80, netmodel.UDP443, netmodel.UDP53}
	s := scan.New(w.Net, scan.DefaultConfig(17))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var results atomic.Uint64
		stats, err := s.StreamFrom(ctx, reader.Source(), protos, 100, func(batch *scan.Batch) error {
			results.Add(uint64(len(batch.Results)))
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(stats.Batches), "batches")
		b.ReportMetric(float64(results.Load()), "results")
	}
}

// BenchmarkFullTimeline runs the complete 2018-2022 schedule on a tiny
// world: the cost of the whole reproduction loop.
func BenchmarkFullTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := worldgen.Generate(worldgen.Params{
			Seed: uint64(i + 3), Scale: 1.0 / 20000, TailASes: 32, ScanIntervalDays: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		tracer := yarrp.New(w.Net, yarrp.Config{Seed: uint64(i + 3)})
		svc := core.NewService(core.DefaultConfig(9), w.Net, w.BuildFeeds(tracer), w.Blocklist)
		ctx := context.Background()
		for j := 0; j < len(w.ScanDays); j += 4 {
			if _, err := svc.RunScan(ctx, w.ScanDays[j]); err != nil {
				b.Fatal(err)
			}
		}
		recs := svc.Records()
		b.ReportMetric(float64(recs[len(recs)-1].TotalClean), "responsive")
	}
}

// BenchmarkGFWSpikeDetection measures classifying the cumulative
// injection evidence against the 2022 snapshot: how much of the
// published responsive set at the cleanup date was injection-tainted,
// and how much of the evidence pointed at addresses real on other
// protocols (the split the paper's one-time filter is built from).
func BenchmarkGFWSpikeDetection(b *testing.B) {
	s := suite(b)
	snap, ok := s.Svc.Snapshots()[netmodel.Day2022]
	if !ok {
		b.Fatal("no 2022 snapshot")
	}
	recs := s.Svc.Records()
	if len(recs) == 0 {
		b.Fatal("no records")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The evidence's sorted columns, walked in place: no merged copy.
		injected := s.Svc.Tracker().FreezeInjectedSeen()
		published := 0
		for sh := 0; sh < ip6.AddrShards; sh++ {
			for _, a := range injected.Shard(sh) {
				if snap.ResponsiveAny.Has(a) {
					published++
				}
			}
		}
		impacted, err := s.Svc.InjectedOnly()
		if err != nil {
			b.Fatal(err)
		}
		injectedOnly := impacted.Len()
		total := 0
		for _, rec := range recs {
			total += rec.InjectedDNS
		}
		b.ReportMetric(float64(total), "injected-results")
		b.ReportMetric(float64(published), "published-injected")
		b.ReportMetric(float64(injectedOnly), "filter-list")
	}
}

// BenchmarkServeQPS measures the lock-free serving hot paths at full
// parallelism against a published snapshot: the DNS sub-benchmark drives
// DNSResponder.Respond (the zero-alloc wire path ServeUDP loops run),
// the HTTP sub-benchmark drives the JSON handler end to end. The qps
// metric is queries per wall-clock second across all client goroutines.
func BenchmarkServeQPS(b *testing.B) {
	r := rng.NewStream(42, "serve-bench")
	addrs := make([]ip6.Addr, 1<<17)
	for i := range addrs {
		addrs[i] = ip6.AddrFromUint64s(0x2001_0000_0000_0000|r.Uint64()&0xffff_ffff, r.Uint64())
	}
	var perProto [netmodel.NumProtocols]*ip6.SortedShardSet
	h := serve.NewHandle()
	h.Publish(serve.NewSnapshot(100, ip6.SortedOf(addrs...), perProto, nil, nil))

	// Query workload: alternate members and uniform-random misses.
	queries := make([]ip6.Addr, 1024)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = addrs[r.Intn(len(addrs))]
		} else {
			queries[i] = ip6.AddrFromUint64s(r.Uint64(), r.Uint64())
		}
	}

	b.Run("dns", func(b *testing.B) {
		responder := serve.NewDNSResponder(h, "hitlist6.serve")
		wires := make([][]byte, len(queries))
		for i, a := range queries {
			w, err := dnswire.NewQuery(uint16(i), responder.QueryName(a, "live"), dnswire.TypeA).Encode()
			if err != nil {
				b.Fatal(err)
			}
			wires[i] = w
		}
		var next atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var sc serve.Scratch
			dst := make([]byte, 0, 512)
			i := int(next.Add(1)) * 31
			for pb.Next() {
				dst = responder.Respond(wires[i%len(wires)], dst[:0], &sc)
				if dst == nil {
					b.Fatal("responder dropped a valid query")
				}
				i++
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})

	b.Run("http", func(b *testing.B) {
		handler := serve.NewHTTPHandler(h)
		urls := make([]string, len(queries))
		for i, a := range queries {
			urls[i] = "/v1/query?addr=" + a.String()
		}
		var next atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(next.Add(1)) * 31
			for pb.Next() {
				req := httptest.NewRequest("GET", urls[i%len(urls)], nil)
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("HTTP %d", rec.Code)
				}
				i++
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})
}

// BenchmarkSnapshotPublish measures building and publishing one serve
// snapshot generation from a 2^17-member set when only a few shards
// changed since the previous publication — the steady state of a stable
// hitlist. The full sub-benchmark re-freezes all 64 shards every time;
// the delta sub-benchmark publishes a cumulative set's view: the churn
// folds into the dirty shards' columns and the rest are the previous
// generation's very slices.
func BenchmarkSnapshotPublish(b *testing.B) {
	const dirtyShards = 4 // churn confined to 4 of the 64 shards (<10% dirty)
	r := rng.NewStream(42, "publish-bench")
	members := ip6.NewShardedSet()
	for i := 0; i < 1<<17; i++ {
		members.Add(ip6.AddrFromUint64s(0x2001_0000_0000_0000|r.Uint64()&0xffff_ffff, r.Uint64()))
	}
	fresh := func(n int) []ip6.Addr {
		out := make([]ip6.Addr, 0, n)
		for len(out) < n {
			a := ip6.AddrFromUint64s(0x2001_0000_0000_0000|r.Uint64()&0xffff_ffff, r.Uint64())
			if ip6.ShardOf(a) < dirtyShards {
				out = append(out, a)
			}
		}
		return out
	}
	var perProto [netmodel.NumProtocols]*ip6.SortedShardSet

	b.Run("full", func(b *testing.B) {
		churn := fresh(b.N * dirtyShards)
		h := serve.NewHandle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range churn[i*dirtyShards : (i+1)*dirtyShards] {
				members.Add(a)
			}
			h.Publish(serve.NewSnapshot(100, ip6.FreezeSorted(members), perProto, nil, nil))
		}
	})

	b.Run("delta", func(b *testing.B) {
		churn := fresh(b.N * dirtyShards)
		h := serve.NewHandle()
		set := cumulativeOf(members)
		prev := foldedView(b, set)
		refrozen, shared := 0, 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range churn[i*dirtyShards : (i+1)*dirtyShards] {
				set.Add(a)
			}
			out := foldedView(b, set)
			rf := refrozenShards(prev, out)
			refrozen += rf
			shared += ip6.AddrShards - rf
			h.Publish(serve.NewSnapshot(100, out, perProto, nil, nil))
			prev = out
		}
		b.StopTimer()
		b.ReportMetric(float64(refrozen)/float64(b.N), "refrozen/op")
		b.ReportMetric(float64(shared)/float64(b.N), "shared/op")
	})
}

// cumulativeOf returns a folded cumulative set holding members.
func cumulativeOf(members *ip6.ShardedSet) *ip6.SpillSet {
	set := ip6.NewResidentSet()
	for sh := 0; sh < ip6.AddrShards; sh++ {
		for a := range members.Shard(sh) {
			set.Add(a)
		}
	}
	set.Compact()
	return set
}

// foldedView folds set and returns its view.
func foldedView(b *testing.B, set *ip6.SpillSet) *ip6.SortedShardSet {
	if err := set.Compact(); err != nil {
		b.Fatal(err)
	}
	v, err := set.View()
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// refrozenShards counts the shards of cur that are not prev's very span.
func refrozenShards(prev, cur *ip6.SortedShardSet) int {
	n := 0
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if !tga.SameSpan(prev.Shard(sh), cur.Shard(sh)) {
			n++
		}
	}
	return n
}

// BenchmarkSeedView measures the per-round cost of handing the TGA
// generators their seed view from a 2^17-member cumulative responsive
// set. steady is the no-new-responders round: no shard has a pending Δ,
// the view wraps all 64 columns as they are and the round costs
// nanoseconds regardless of cumulative size. churn confines new
// responders to 4 shards — only those fold into fresh columns, so the
// cost tracks the dirtied shards, not the set.
func BenchmarkSeedView(b *testing.B) {
	const dirtyShards = 4
	r := rng.NewStream(43, "seedview-bench")
	members := ip6.NewResidentSet()
	for i := 0; i < 1<<17; i++ {
		members.Add(ip6.AddrFromUint64s(0x2001_0000_0000_0000|r.Uint64()&0xffff_ffff, r.Uint64()))
	}
	fresh := func(n int) []ip6.Addr {
		out := make([]ip6.Addr, 0, n)
		for len(out) < n {
			a := ip6.AddrFromUint64s(0x2001_0000_0000_0000|r.Uint64()&0xffff_ffff, r.Uint64())
			if ip6.ShardOf(a) < dirtyShards {
				out = append(out, a)
			}
		}
		return out
	}

	b.Run("steady", func(b *testing.B) {
		prev := foldedView(b, members)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := foldedView(b, members)
			if rf := refrozenShards(prev, out); rf != 0 {
				b.Fatalf("steady round refroze %d shards", rf)
			}
			prev = out
		}
		b.ReportMetric(0, "refrozen/op")
	})

	b.Run("churn", func(b *testing.B) {
		churn := fresh(b.N * dirtyShards)
		prev := foldedView(b, members)
		refrozen := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range churn[i*dirtyShards : (i+1)*dirtyShards] {
				members.Add(a)
			}
			out := foldedView(b, members)
			refrozen += refrozenShards(prev, out)
			prev = out
		}
		b.StopTimer()
		b.ReportMetric(float64(refrozen)/float64(b.N), "refrozen/op")
	})
}

// BenchmarkTGARound measures one generate-round of the incremental TGA
// pipeline over a 2^17-seed view, once per generator: folding the seed
// set into its view, the generator's model update, and draining the streamed
// candidate source (budget 4096). steady re-runs the round with no new
// seeds — every span is unchanged by identity, the model update is free
// and the round pays emission alone. churn adds 4 seeds from the first 4
// shards per round — the model grows by those seeds.
func BenchmarkTGARound(b *testing.B) {
	const dirtyShards = 4
	const budget = 4096
	generators := []func() tga.ViewStreamer{
		func() tga.ViewStreamer { return dc.New(dc.DefaultConfig()) },
		func() tga.ViewStreamer { return sixtree.New(sixtree.DefaultConfig()) },
		func() tga.ViewStreamer { return sixgraph.New(sixgraph.DefaultConfig()) },
		func() tga.ViewStreamer { return sixgan.New(sixgan.DefaultConfig()) },
		func() tga.ViewStreamer { return sixveclm.New(sixveclm.DefaultConfig()) },
	}
	seedSet := func() *ip6.SpillSet {
		members := ip6.NewResidentSet()
		// Structured seeds: 1024 /64s, each a dense run with gap 2 (gaps
		// for distance clustering, partly filled nibbles for the tree and
		// graph patterns) plus random IIDs (variety for the sampling
		// models), so every generator has novel candidates to emit.
		r := rng.NewStream(43, "tga-round-seeds")
		for net := uint64(0); net < 1024; net++ {
			hi := 0x2a01_0000_0000_0000 | net<<8
			for i := uint64(0); i < 96; i++ {
				members.Add(ip6.AddrFromUint64s(hi, 1+i*2))
			}
			for i := 0; i < 32; i++ {
				members.Add(ip6.AddrFromUint64s(hi, r.Uint64()))
			}
		}
		return members
	}
	drain := func(b *testing.B, feed tga.CandidateFeed, view *tga.SeedView) int {
		b.Helper()
		src := feed.Candidates(0, view)
		buf := make([]ip6.Addr, 512)
		n := 0
		for {
			k, err := src.Next(buf)
			n += k
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		return n
	}

	for _, mode := range []string{"steady", "churn"} {
		for _, newGen := range generators {
			b.Run(mode+"/"+newGen().Name(), func(b *testing.B) {
				members := seedSet()
				feed := tga.CandidateFeed{Gen: newGen(), Budget: budget}
				var churn []ip6.Addr
				if mode == "churn" {
					r := rng.NewStream(44, "tga-round-bench")
					for len(churn) < b.N*dirtyShards {
						a := ip6.AddrFromUint64s(0x2a01_0000_0000_0000|r.Uint64()&0xffff_ffff, r.Uint64())
						if ip6.ShardOf(a) < dirtyShards {
							churn = append(churn, a)
						}
					}
				}
				prev := foldedView(b, members)
				drain(b, feed, prev) // prime: pay the one-time model build
				cands, refrozen := 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if churn != nil {
						for _, a := range churn[i*dirtyShards : (i+1)*dirtyShards] {
							members.Add(a)
						}
					}
					out := foldedView(b, members)
					rf := refrozenShards(prev, out)
					if churn == nil && rf != 0 {
						b.Fatalf("steady round refroze %d shards", rf)
					}
					refrozen += rf
					prev = out
					cands += drain(b, feed, out)
				}
				b.StopTimer()
				b.ReportMetric(float64(cands)/float64(b.N), "candidates/op")
				b.ReportMetric(float64(refrozen)/float64(b.N), "refrozen/op")
			})
		}
	}
}

// BenchmarkCheckpointDelta measures one steady-state checkpoint of a
// service carrying a large cumulative input-seen set (2^18 addresses)
// with per-scan churn of 100 addresses in two shards. The full
// sub-benchmark rewrites every payload each time (CheckpointFullEvery=1);
// the delta sub-benchmark chains delta checkpoints that append only what
// each scan added: the churn addresses, the records and the APD rows
// the round recorded. Both cluster the pool into 256 /64s, keeping the
// APD history tiny; delta-wide spreads it over 2^15 /64s, all tested in
// the first APD round, so the history holds ~33 k rows as on a long
// durable timeline, and the delta appends only the rows each round
// re-records.
// ckpt-bytes/op is the manifest's total payload size per checkpoint —
// the on-disk write amplification the delta path exists to cut.
func BenchmarkCheckpointDelta(b *testing.B) {
	const (
		poolSize    = 1 << 18
		churnShards = 2
		churnPerDay = 100
	)
	churnFor := func(day, prefixes64 int) []ip6.Addr {
		r := rng.NewStream(uint64(day), "ckpt-bench-churn")
		out := make([]ip6.Addr, 0, churnPerDay)
		for len(out) < churnPerDay {
			a := ip6.AddrFromUint64s(0x2600_0000_0000_0000|uint64(r.Intn(prefixes64)), r.Uint64())
			if ip6.ShardOf(a) < churnShards {
				out = append(out, a)
			}
		}
		return out
	}
	run := func(b *testing.B, fullEvery, prefixes64 int) {
		w, err := worldgen.Generate(worldgen.Params{
			Seed: 7, Scale: 1.0 / 20000, TailASes: 32, ScanIntervalDays: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		r := rng.NewStream(7, "ckpt-bench-pool")
		pool := make([]ip6.Addr, poolSize)
		for i := range pool {
			pool[i] = ip6.AddrFromUint64s(0x2600_0000_0000_0000|uint64(i%prefixes64), r.Uint64())
		}
		feed := &sources.Feed{
			Name: "bench-synthetic", FromDay: 0, ToDay: 1 << 30,
			Collect: func(_ context.Context, day int) ([]ip6.Addr, error) {
				if day == 0 {
					return pool, nil
				}
				return churnFor(day, prefixes64), nil
			},
		}
		cfg := core.DefaultConfig(7)
		cfg.CheckpointFullEvery = fullEvery
		cfg.APDMaxNewCandidates = prefixes64
		svc := core.NewService(cfg, w.Net, []*sources.Feed{feed}, nil)
		defer svc.Close()
		ctx := context.Background()
		// Day 0 ingests the pool; the day-31 scan evicts it (30-day
		// unresponsive horizon), so the always-rewritten active table stays
		// small and the cumulative input-seen set is what each checkpoint
		// has to carry.
		for _, day := range []int{0, 31} {
			if _, err := svc.RunScan(ctx, day); err != nil {
				b.Fatal(err)
			}
		}
		dir := filepath.Join(b.TempDir(), "ckpt")
		if err := svc.Checkpoint(dir); err != nil { // the head deltas chain from
			b.Fatal(err)
		}
		var bytesTotal int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := svc.RunScan(ctx, 32+i); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := svc.Checkpoint(dir); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			m, err := ckpt.ReadManifest(dir)
			if err != nil {
				b.Fatal(err)
			}
			for _, fi := range m.Files {
				bytesTotal += fi.Bytes
			}
			if fullEvery != 1 && m.Depth == 0 {
				b.Fatal("expected a delta checkpoint")
			}
			// Parked chain parents are only read on resume; prune them so a
			// long delta run doesn't fill the disk.
			parked, _ := filepath.Glob(dir + ".p[0-9]*")
			for _, p := range parked {
				os.RemoveAll(p)
			}
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(bytesTotal)/float64(b.N), "ckpt-bytes/op")
	}
	b.Run("full", func(b *testing.B) { run(b, 1, 256) })
	b.Run("delta", func(b *testing.B) { run(b, 1<<30, 256) })
	b.Run("delta-wide", func(b *testing.B) { run(b, 1<<30, 1<<15) })
}

// BenchmarkServeUnderScan measures query latency while the timeline
// advances underneath: a writer goroutine runs scans (each finalization
// publishing a fresh snapshot with one atomic swap) while the parallel
// clients hammer QueryHandle.Lookup. The contract under test: readers
// never lock, so the advancing timeline costs them nothing.
func BenchmarkServeUnderScan(b *testing.B) {
	wp := worldgen.Params{Seed: 42, Scale: 1.0 / 5000, TailASes: 64, ScanIntervalDays: 7}
	w, err := worldgen.Generate(wp)
	if err != nil {
		b.Fatal(err)
	}
	feeds := w.BuildFeeds(yarrp.New(w.Net, yarrp.Config{Seed: 42}))
	cfg := core.DefaultConfig(42)
	cfg.ServeSnapshots = true
	svc := core.NewService(cfg, w.Net, feeds, w.Blocklist)
	defer svc.Close()
	if _, err := svc.RunScan(context.Background(), w.ScanDays[0]); err != nil {
		b.Fatal(err)
	}
	h := svc.QueryHandle()

	r := rng.NewStream(42, "serve-under-scan")
	prefixes := w.Net.AS.AnnouncedPrefixes()
	queries := make([]ip6.Addr, 1024)
	for i := range queries {
		queries[i] = prefixes[r.Intn(len(prefixes))].RandomAddr(r)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < len(w.ScanDays); i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := svc.RunScan(context.Background(), w.ScanDays[i]); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 31
		for pb.Next() {
			if _, ok := h.Lookup(queries[i%len(queries)]); !ok {
				b.Fatal("no snapshot published")
			}
			i++
		}
	})
	b.StopTimer()
	close(done)
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	if snap := h.Current(); snap != nil {
		b.ReportMetric(float64(snap.Generation), "snapshots")
	}
}
