package tga_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/tga"
	"hitlist6/internal/tga/dc"
	"hitlist6/internal/tga/sixgan"
	"hitlist6/internal/tga/sixgraph"
	"hitlist6/internal/tga/sixtree"
	"hitlist6/internal/tga/sixveclm"
)

// streamSeeds builds a structured seed set that exercises every
// generator: a dense low-IID cluster (distance clustering needs ≥10
// addresses within gap 64), EUI-64 and wordy IIDs for 6GAN's classes,
// and enough per-/64 variety for the tree/graph/Markov models.
func streamSeeds() []ip6.Addr {
	var seeds []ip6.Addr
	base := ip6.MustParsePrefix("2001:db8:1:1::/64")
	for i := uint64(1); i <= 14; i++ { // dense run, gaps of 2
		seeds = append(seeds, base.NthAddr(i*2))
	}
	r := rng.NewStream(99, "tga-stream-seeds")
	nets := []ip6.Prefix{
		ip6.MustParsePrefix("2001:db8:2:1::/64"),
		ip6.MustParsePrefix("2001:db8:2:2::/64"),
		ip6.MustParsePrefix("2a00:1450:8:9::/64"),
	}
	for _, p := range nets {
		for i := 0; i < 40; i++ {
			seeds = append(seeds, p.RandomAddr(r)) // random IIDs
		}
		for i := uint64(0); i < 12; i++ {
			seeds = append(seeds, p.NthAddr(i+1)) // low-byte IIDs
		}
	}
	ip6.SortAddrs(seeds)
	return tga.DedupAgainstSeeds(seeds, nil)
}

// generators returns fresh instances of the five bundled generators at
// their default configurations.
func generators() []tga.ViewStreamer {
	return []tga.ViewStreamer{
		sixtree.New(sixtree.DefaultConfig()),
		sixgraph.New(sixgraph.DefaultConfig()),
		sixgan.New(sixgan.DefaultConfig()),
		sixveclm.New(sixveclm.DefaultConfig()),
		dc.New(dc.DefaultConfig()),
	}
}

// emitAll collects g's full EmitView stream over v.
func emitAll(g tga.ViewStreamer, v *tga.SeedView, budget int) []ip6.Addr {
	var out []ip6.Addr
	g.EmitView(v, budget, func(a ip6.Addr) bool {
		out = append(out, a)
		return true
	})
	return out
}

// streamDigest is the sha256 over a candidate stream's raw 16-byte
// addresses, in order.
func streamDigest(cands []ip6.Addr) string {
	h := sha256.New()
	for _, a := range cands {
		h.Write(a[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorStreamsMatchGolden pins every generator's exact emission
// over streamSeeds at budget 3000 against recorded digests, so a change
// that moves incremental and scratch output together still fails here.
func TestGeneratorStreamsMatchGolden(t *testing.T) {
	golden := map[string]struct {
		n      int
		sha256 string
	}{
		"6Tree":  {3000, "335c128e823824cf8a0fb85105a5e9e959fa744d32ee86366ab8084cda6e5ee9"},
		"6Graph": {30, "0801812b44fb15893190e84f5e9e6b61abdbb4349078d1ee5c2e0ecc9b399669"},
		"6GAN":   {2641, "336a04bbf2335b7352a16f4e74359553bb295d8dadea0caf862abb1ffea97075"},
		"6VecLM": {3000, "32956b35ea6ced91f192f37110a2dca57fa86854491eb5d55ddd4ca0e23635de"},
		"DC":     {13, "0dbd839a6fdabde1b38fed72e8916c596711fdeb2002d2bd4c977e28461ed717"},
	}
	v := tga.SeedViewOf(streamSeeds())
	for _, g := range generators() {
		want, ok := golden[g.Name()]
		if !ok {
			t.Fatalf("%s: no golden digest", g.Name())
		}
		got := emitAll(g, v, 3000)
		if len(got) != want.n || streamDigest(got) != want.sha256 {
			t.Errorf("%s: stream (%d candidates, sha256 %s) differs from golden (%d, %s)",
				g.Name(), len(got), streamDigest(got), want.n, want.sha256)
		}
	}
}

// TestEmitMatchesGenerate pins the pull adapter: pulling through
// tga.NewViewSource reproduces the collected EmitView stream exactly, for
// any pull buffer size, and Emitted counts it.
func TestEmitMatchesGenerate(t *testing.T) {
	v := tga.SeedViewOf(streamSeeds())
	const budget = 3000
	for _, g := range generators() {
		gen := emitAll(g, v, budget)
		if len(gen) == 0 {
			t.Fatalf("%s: no candidates generated", g.Name())
		}
		for _, bufSize := range []int{1, 7, 513} {
			src := tga.NewViewSource(g, v, budget)
			var pulled []ip6.Addr
			buf := make([]ip6.Addr, bufSize)
			for {
				n, err := src.Next(buf)
				pulled = append(pulled, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s: Next: %v", g.Name(), err)
				}
			}
			if !reflect.DeepEqual(gen, pulled) {
				t.Fatalf("%s (buf %d): pulled stream diverges from EmitView (%d vs %d candidates)",
					g.Name(), bufSize, len(pulled), len(gen))
			}
			if src.Emitted() != len(gen) {
				t.Errorf("%s: Emitted() = %d, want %d", g.Name(), src.Emitted(), len(gen))
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// collectShardSequences streams and records each shard's target sequence
// in batch Seq order — the engine's full deterministic output shape.
func collectShardSequences(t *testing.T, stream func(scan.Sink) (scan.Stats, error)) (map[int][]ip6.Addr, scan.Stats) {
	t.Helper()
	var mu sync.Mutex
	seqs := make(map[int][]ip6.Addr)
	next := make(map[int]int)
	st, err := stream(func(b *scan.Batch) error {
		mu.Lock()
		defer mu.Unlock()
		if b.Seq != next[b.Shard] {
			t.Errorf("shard %d: batch seq %d, want %d", b.Shard, b.Seq, next[b.Shard])
		}
		next[b.Shard]++
		for i := range b.Results {
			seqs[b.Shard] = append(seqs[b.Shard], b.Results[i].Target)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs, st
}

// TestGenerateThenStreamEquivalence is the API-redesign acceptance test:
// for every TGA, materializing the collected EmitView candidate list and
// streaming it must be bit-identical — per-shard batch sequences and
// aggregate stats — to StreamFrom pulling the generator's stream
// directly, for several worker counts and chunk sizes. The candidate
// slice never exists on the StreamFrom side.
func TestGenerateThenStreamEquivalence(t *testing.T) {
	v := tga.SeedViewOf(streamSeeds())
	const budget = 2500
	net := netmodel.NewNetwork(3, netmodel.NewASTable(nil))
	protos := []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80}

	for _, g := range generators() {
		candidates := emitAll(g, v, budget)
		mk := func(workers, chunk int) *scan.Scanner {
			cfg := scan.DefaultConfig(11)
			cfg.LossRate = 0.05
			cfg.Workers = workers
			cfg.BatchSize = 32
			cfg.SourceChunk = chunk
			return scan.New(net, cfg)
		}
		base, baseStats := collectShardSequences(t, func(sink scan.Sink) (scan.Stats, error) {
			return mk(1, 0).StreamFrom(context.Background(), scan.SliceSource(candidates), protos, 9, sink)
		})
		for _, workers := range []int{1, 4} {
			for _, chunk := range []int{1, 100, 0} {
				got, gotStats := collectShardSequences(t, func(sink scan.Sink) (scan.Stats, error) {
					return mk(workers, chunk).StreamFrom(context.Background(), tga.NewViewSource(g, v, budget), protos, 9, sink)
				})
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("%s workers=%d chunk=%d: StreamFrom shard sequences diverge from collect-then-stream",
						g.Name(), workers, chunk)
				}
				if baseStats.ProbesSent != gotStats.ProbesSent || baseStats.Batches != gotStats.Batches {
					t.Fatalf("%s workers=%d chunk=%d: stats diverge: %+v vs %+v",
						g.Name(), workers, chunk, baseStats, gotStats)
				}
			}
		}
	}
}

// TestSourceEarlyClose: closing a partially pulled source stops the
// generator goroutine and further pulls; double Close is safe.
func TestSourceEarlyClose(t *testing.T) {
	g := sixgraph.New(sixgraph.DefaultConfig())
	src := tga.NewViewSource(g, tga.SeedViewOf(streamSeeds()), 100000)
	buf := make([]ip6.Addr, 16)
	if n, err := src.Next(buf); n == 0 || err != nil {
		t.Fatalf("first pull: n=%d err=%v", n, err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	// Pulls after Close drain at most the already-buffered chunks and
	// then end; they must not hang.
	for i := 0; i < 100000/16; i++ {
		if _, err := src.Next(buf); err == io.EOF {
			return
		}
	}
	t.Fatal("source did not terminate after Close")
}

// pullAll drains src with pulls of bufSize addresses.
func pullAll(t *testing.T, src scan.TargetSource, bufSize int) []ip6.Addr {
	t.Helper()
	var out []ip6.Addr
	buf := make([]ip6.Addr, bufSize)
	for {
		n, err := src.Next(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestChainedRoundMatchesSerial pins a round of the TGA loop: the five
// generators' sources, all started when made and joined with
// scan.Chain, deliver exactly what five twin generators emit run one
// after another — over two successive grow-only views, so the second
// round's incremental model updates also run side by side — for any
// pull buffer size.
func TestChainedRoundMatchesSerial(t *testing.T) {
	seeds := streamSeeds()
	set := ip6.NewResidentSet()
	var views []*tga.SeedView
	for _, part := range [][]ip6.Addr{seeds[:len(seeds)/2], seeds[len(seeds)/2:]} {
		for _, a := range part {
			set.Add(a)
		}
		if err := set.Compact(); err != nil {
			t.Fatal(err)
		}
		view, err := set.View()
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, tga.NewSeedView(view))
	}
	const budget = 400
	for _, bufSize := range []int{1, 7, 513} {
		gens, twins := generators(), generators()
		for round, v := range views {
			var want []ip6.Addr
			for _, g := range twins {
				want = append(want, emitAll(g, v, budget)...)
			}
			srcs := make([]scan.TargetSource, len(gens))
			for i, g := range gens {
				srcs[i] = tga.NewViewSource(g, v, budget)
			}
			chain := scan.Chain(srcs...)
			got := pullAll(t, chain, bufSize)
			if err := chain.(io.Closer).Close(); err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("round %d: no candidates generated", round)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("buf %d round %d: chained stream diverges from the serial twins (%d vs %d candidates)",
					bufSize, round, len(got), len(want))
			}
		}
	}
}

// gatedGen is a ViewStreamer whose model update blocks until the test
// releases it, and which counts the EmitView calls in flight. Stopped by
// its yield, it takes a moment to unwind, as a real model does.
type gatedGen struct {
	entered  chan struct{} // one send per EmitView, on entry
	release  chan struct{} // one receive per EmitView, ending its update
	inFlight atomic.Int32
	maxSeen  atomic.Int32
}

func (g *gatedGen) Name() string { return "gated" }

func (g *gatedGen) EmitView(v *tga.SeedView, budget int, yield func(ip6.Addr) bool) {
	n := g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	for m := g.maxSeen.Load(); n > m && !g.maxSeen.CompareAndSwap(m, n); m = g.maxSeen.Load() {
	}
	g.entered <- struct{}{}
	<-g.release
	p := ip6.MustParsePrefix("2001:db8:99::/64")
	for i := 0; i < budget; i++ {
		if !yield(p.NthAddr(uint64(i))) {
			time.Sleep(10 * time.Millisecond)
			return
		}
	}
}

// TestSourceCloseJoinsGenerator: Close returns only once the generator's
// EmitView has — on a source never pulled, whose update is still
// running, and on a partly pulled one — so a new source over the same
// generator never overlaps the old one, and no goroutine outlives its
// source.
func TestSourceCloseJoinsGenerator(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := &gatedGen{entered: make(chan struct{}), release: make(chan struct{})}
	v := tga.SeedViewOf(streamSeeds())
	const budget = 1 << 20
	start := func(what string, budget int) *tga.Source {
		t.Helper()
		src := tga.NewViewSource(g, v, budget)
		select {
		case <-g.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the generator did not start when the source was made", what)
		}
		return src
	}

	// Never pulled: Close waits out the blocked update.
	src := start("unpulled source", budget)
	closed := make(chan struct{})
	go func() {
		src.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while the generator's update was still running")
	case <-time.After(50 * time.Millisecond):
	}
	g.release <- struct{}{}
	<-closed
	if n := g.inFlight.Load(); n != 0 {
		t.Fatalf("after Close of an unpulled source: %d EmitView calls in flight", n)
	}

	// Partly pulled: Close waits for EmitView to unwind, and a second
	// source over the same generator starts only after it.
	src = start("partly pulled source", budget)
	g.release <- struct{}{}
	buf := make([]ip6.Addr, 16)
	if n, err := src.Next(buf); n == 0 || err != nil {
		t.Fatalf("first pull: n=%d err=%v", n, err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if n := g.inFlight.Load(); n != 0 {
		t.Fatalf("after Close of a partly pulled source: %d EmitView calls in flight", n)
	}
	next := start("second source", 1000)
	g.release <- struct{}{}
	if got := len(pullAll(t, next, 64)); got != 1000 {
		t.Fatalf("second source pulled %d candidates, want 1000", got)
	}
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}
	if m := g.maxSeen.Load(); m > 1 {
		t.Fatalf("%d EmitView calls ran on one generator at once", m)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive their sources (baseline %d)", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamingDedupMatchesDedupAgainstSeeds pins scan.Dedup as the
// streaming counterpart of tga.DedupAgainstSeeds: same survivors, same
// order, for a stream with seed hits and repeats.
func TestStreamingDedupMatchesDedupAgainstSeeds(t *testing.T) {
	r := rng.NewStream(5, "dedup-test")
	p := ip6.MustParsePrefix("2001:db8:77::/64")
	var seeds, candidates []ip6.Addr
	for i := uint64(0); i < 50; i++ {
		seeds = append(seeds, p.NthAddr(i))
	}
	for i := 0; i < 600; i++ {
		candidates = append(candidates, p.NthAddr(uint64(r.Intn(120)))) // many dups + seed hits
	}

	want := tga.DedupAgainstSeeds(append([]ip6.Addr(nil), candidates...), seeds)

	seedSet := ip6.NewSet(len(seeds))
	seedSet.AddSlice(seeds)
	src := scan.Dedup(scan.SliceSource(candidates), seedSet.Has)
	got, err := scan.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("streaming dedup diverges: %d vs %d survivors", len(got), len(want))
	}

	// The same stream deduped against a disk-backed emitted set — how
	// the service's TGA feed round runs under a memory budget — must be
	// bit-identical too, even when every insert spills.
	spill, err := ip6.NewSpillSet(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	spilled, err := scan.Collect(scan.DedupWith(scan.SliceSource(candidates), seedSet.Has, spill))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, spilled) {
		t.Fatalf("spill-backed dedup diverges: %d vs %d survivors", len(spilled), len(want))
	}
	if spill.FrozenRuns() == 0 {
		t.Fatal("spill-backed dedup never spilled")
	}
}
