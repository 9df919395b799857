package scan

import (
	"context"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
)

// opaque hides every optional refinement of a source, forcing StreamFrom
// onto the routed (pull-and-hash) path.
type opaque struct{ src TargetSource }

func (o opaque) Next(buf []ip6.Addr) (int, error) { return o.src.Next(buf) }

// closeRecorder counts Close calls through the engine.
type closeRecorder struct {
	TargetSource
	closed int
}

func (c *closeRecorder) Close() error { c.closed++; return nil }

// errSource yields a prefix of targets and then fails.
type errSource struct {
	rest []ip6.Addr
	err  error
}

func (s *errSource) Next(buf []ip6.Addr) (int, error) {
	if len(s.rest) == 0 {
		return 0, s.err
	}
	n := copy(buf, s.rest)
	s.rest = s.rest[n:]
	return n, nil
}

// TestSliceSourceContract pins the TargetSource pull contract on the
// slice implementation: progress on every call, io.EOF exactly at
// exhaustion (with or without final data), and stability after EOF.
func TestSliceSourceContract(t *testing.T) {
	targets := streamTargets(10)
	src := SliceSource(targets)
	buf := make([]ip6.Addr, 4)
	var got []ip6.Addr
	for i := 0; ; i++ {
		n, err := src.Next(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			if n == 0 && i < 3 {
				t.Error("EOF without final data arrived early")
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("Next returned 0, nil")
		}
	}
	if !reflect.DeepEqual(got, targets) {
		t.Error("pulled sequence differs from slice")
	}
	if n, err := src.Next(buf); n != 0 || err != io.EOF {
		t.Errorf("post-EOF pull: n=%d err=%v", n, err)
	}

	// Empty slice: immediate EOF.
	if n, err := SliceSource(nil).Next(buf); n != 0 || err != io.EOF {
		t.Errorf("empty source: n=%d err=%v", n, err)
	}
}

// TestChainAndFilterSources: Chain preserves concatenation order, Filter
// drops without breaking the progress contract, Dedup removes skips and
// repeats in first-occurrence order.
func TestChainAndFilterSources(t *testing.T) {
	a := streamTargets(5)
	b := streamTargets(9)[5:]
	got, err := Collect(Chain(SliceSource(a), SliceSource(nil), SliceSource(b)))
	if err != nil {
		t.Fatal(err)
	}
	if want := streamTargets(9); !reflect.DeepEqual(got, want) {
		t.Errorf("chain order: got %d targets, want %d", len(got), len(want))
	}

	evens, err := Collect(Filter(SliceSource(streamTargets(10)), func(x ip6.Addr) bool { return x.Lo()%2 == 0 }))
	if err != nil {
		t.Fatal(err)
	}
	if len(evens) != 5 {
		t.Errorf("filter kept %d, want 5", len(evens))
	}

	dup := append(append([]ip6.Addr{}, streamTargets(6)...), streamTargets(8)...)
	skip := streamTargets(2)
	skipSet := ip6.NewSet(2)
	skipSet.AddSlice(skip)
	deduped, err := Collect(Dedup(SliceSource(dup), skipSet.Has))
	if err != nil {
		t.Fatal(err)
	}
	if want := streamTargets(8)[2:]; !reflect.DeepEqual(deduped, want) {
		t.Errorf("dedup: got %v want %v", deduped, want)
	}
}

// shardSequences collects each shard's target sequence in Seq order plus
// stats — the engine's complete deterministic output.
func shardSequences(t *testing.T, stream func(Sink) (Stats, error)) (map[int][]ip6.Addr, Stats) {
	t.Helper()
	var mu sync.Mutex
	seqs := make(map[int][]ip6.Addr)
	next := make(map[int]int)
	st, err := stream(func(b *Batch) error {
		mu.Lock()
		defer mu.Unlock()
		if b.Seq != next[b.Shard] {
			t.Errorf("shard %d: seq %d, want %d", b.Shard, b.Seq, next[b.Shard])
		}
		next[b.Shard]++
		for i := range b.Results {
			if ip6.ShardOf(b.Results[i].Target) != b.Shard {
				t.Errorf("target %v delivered in shard %d", b.Results[i].Target, b.Shard)
			}
			seqs[b.Shard] = append(seqs[b.Shard], b.Results[i].Target)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs, st
}

// TestStreamFromRoutedMatchesStream is the routed path's equivalence
// guarantee: an opaque source (no sharding, no spans — the engine must
// pull, hash and route every address) produces per-shard batch sequences
// and stats bit-identical to Stream over the materialized slice, for
// every worker count, batch size and chunk size combination.
func TestStreamFromRoutedMatchesStream(t *testing.T) {
	n := testNet(t)
	targets := append(streamTargets(700),
		ip6.MustParseAddr("2001:100::80"),
		ip6.MustParseAddr("2001:100::53"),
		ip6.MustParseAddr("240e::1"))
	protos := []netmodel.Protocol{netmodel.ICMP, netmodel.UDP53}

	mk := func(workers, batch, chunk int) *Scanner {
		cfg := DefaultConfig(7)
		cfg.LossRate = 0.1
		cfg.Workers = workers
		cfg.BatchSize = batch
		cfg.SourceChunk = chunk
		return New(n, cfg)
	}
	base, baseStats := shardSequences(t, func(sink Sink) (Stats, error) {
		return mk(1, 16, 0).StreamFrom(context.Background(), SliceSource(targets), protos, 9, sink)
	})
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{1, 16, 512} {
			for _, chunk := range []int{1, 37, 0} {
				got, gotStats := shardSequences(t, func(sink Sink) (Stats, error) {
					return mk(workers, batch, chunk).StreamFrom(context.Background(),
						opaque{SliceSource(targets)}, protos, 9, sink)
				})
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("workers=%d batch=%d chunk=%d: routed shard sequences diverge", workers, batch, chunk)
				}
				if gotStats.ProbesSent != baseStats.ProbesSent || gotStats.Successes != baseStats.Successes {
					t.Fatalf("workers=%d batch=%d chunk=%d: stats diverge: %+v vs %+v",
						workers, batch, chunk, gotStats, baseStats)
				}
				if batch == 16 && gotStats.Batches != baseStats.Batches {
					t.Fatalf("workers=%d chunk=%d: batch boundaries diverge: %d vs %d",
						workers, chunk, gotStats.Batches, baseStats.Batches)
				}
			}
		}
	}
}

// TestStreamFromSourceError: a source failing mid-stream surfaces its
// error, already-delivered batches stand, and the source is closed.
func TestStreamFromSourceError(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(5)
	cfg.BatchSize = 4
	cfg.SourceChunk = 8
	s := New(n, cfg)
	boom := errors.New("feed broke")
	src := &closeRecorder{TargetSource: &errSource{rest: streamTargets(100), err: boom}}
	delivered := 0
	var mu sync.Mutex
	_, err := s.StreamFrom(context.Background(), src, []netmodel.Protocol{netmodel.ICMP}, 3, func(b *Batch) error {
		mu.Lock()
		delivered += len(b.Results)
		mu.Unlock()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if src.closed == 0 {
		t.Error("source not closed after error")
	}
	if delivered == 0 {
		t.Error("no batches delivered before the error")
	}
}

// TestStreamFromCancel: cancellation aborts a routed stream with
// ctx.Err() and still closes the source.
func TestStreamFromCancel(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(5)
	cfg.Workers = 2
	cfg.BatchSize = 2
	s := New(n, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &closeRecorder{TargetSource: opaque{SliceSource(streamTargets(5000))}}
	_, err := s.StreamFrom(ctx, src, allProtos(), 3, func(b *Batch) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.closed == 0 {
		t.Error("source not closed after cancellation")
	}
}

// TestStreamFromNoProgressSource: a source that returns (0, nil) is a
// contract violation the engine must reject rather than spin on.
func TestStreamFromNoProgressSource(t *testing.T) {
	n := testNet(t)
	s := New(n, DefaultConfig(5))
	bad := opaque{src: badSource{}}
	_, err := s.StreamFrom(context.Background(), bad, allProtos(), 3, func(b *Batch) error { return nil })
	if err == nil {
		t.Fatal("no-progress source accepted")
	}
}

type badSource struct{}

func (badSource) Next(buf []ip6.Addr) (int, error) { return 0, nil }

// TestStreamFromEmpty: nil and immediately exhausted sources are clean
// no-ops on both engine paths.
func TestStreamFromEmpty(t *testing.T) {
	n := testNet(t)
	s := New(n, DefaultConfig(5))
	for name, src := range map[string]TargetSource{
		"nil":           nil,
		"emptySlice":    SliceSource(nil),
		"emptyRouted":   opaque{SliceSource(nil)},
		"emptySharded":  ShardSlices(make([][]ip6.Addr, ip6.AddrShards)),
		"emptyFiltered": Filter(SliceSource(streamTargets(50)), func(ip6.Addr) bool { return false }),
	} {
		st, err := s.StreamFrom(context.Background(), src, allProtos(), 3, func(b *Batch) error {
			t.Errorf("%s: sink called", name)
			return nil
		})
		if err != nil || st.ProbesSent != 0 || st.Batches != 0 {
			t.Errorf("%s: %+v, %v", name, st, err)
		}
	}
}

// TestStreamFromSinkQueueBackpressure: the bounded delivery queue with a
// deliberately slow sink behind a routed source still yields exactly the
// inline outputs, in per-shard Seq order.
func TestStreamFromSinkQueueBackpressure(t *testing.T) {
	n := testNet(t)
	targets := streamTargets(400)
	protos := []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80}
	mk := func(depth int) *Scanner {
		cfg := DefaultConfig(5)
		cfg.Workers = 4
		cfg.BatchSize = 8
		cfg.SourceChunk = 64
		cfg.SinkQueueDepth = depth
		return New(n, cfg)
	}
	inline, inlineStats := shardSequences(t, func(sink Sink) (Stats, error) {
		return mk(0).StreamFrom(context.Background(), opaque{SliceSource(targets)}, protos, 3, sink)
	})
	queued, queuedStats := shardSequences(t, func(sink Sink) (Stats, error) {
		slow := func(b *Batch) error {
			time.Sleep(50 * time.Microsecond)
			return sink(b)
		}
		return mk(2).StreamFrom(context.Background(), opaque{SliceSource(targets)}, protos, 3, slow)
	})
	if !reflect.DeepEqual(inline, queued) {
		t.Error("queued delivery changed the shard sequences")
	}
	if inlineStats.ProbesSent != queuedStats.ProbesSent || inlineStats.Batches != queuedStats.Batches {
		t.Errorf("queued stats differ: %+v vs %+v", queuedStats, inlineStats)
	}
}

// TestPerShardStats: the aggregate stats' per-shard breakdown must sum
// to the totals and agree with the per-batch delivery, on both paths.
func TestPerShardStats(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(5)
	cfg.Workers = 4
	s := New(n, cfg)
	targets := streamTargets(500)

	for name, stream := range map[string]func(Sink) (Stats, error){
		"plans": func(sink Sink) (Stats, error) {
			return s.StreamFrom(context.Background(), SliceSource(targets), allProtos(), 3, sink)
		},
		"routed": func(sink Sink) (Stats, error) {
			return s.StreamFrom(context.Background(), opaque{SliceSource(targets)}, allProtos(), 3, sink)
		},
	} {
		var mu sync.Mutex
		perShard := make(map[int]uint64)
		st, err := stream(func(b *Batch) error {
			mu.Lock()
			perShard[b.Shard] += b.Stats.ProbesSent
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.PerShard) != ip6.AddrShards {
			t.Fatalf("%s: PerShard has %d entries", name, len(st.PerShard))
		}
		var sumProbes, sumResp, sumBatches uint64
		for sh, ss := range st.PerShard {
			sumProbes += ss.ProbesSent
			sumResp += ss.Responses
			sumBatches += ss.Batches
			if ss.ProbesSent != perShard[sh] {
				t.Errorf("%s: shard %d probes %d, batches said %d", name, sh, ss.ProbesSent, perShard[sh])
			}
			if ss.ProbesSent > 0 && ss.Nanos <= 0 {
				t.Errorf("%s: shard %d has probes but no time", name, sh)
			}
		}
		if sumProbes != st.ProbesSent || sumResp != st.Responses || sumBatches != st.Batches {
			t.Errorf("%s: per-shard sums (%d, %d, %d) != totals (%d, %d, %d)",
				name, sumProbes, sumResp, sumBatches, st.ProbesSent, st.Responses, st.Batches)
		}
	}
}
