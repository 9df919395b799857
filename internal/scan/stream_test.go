package scan

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
)

func streamTargets(n int) []ip6.Addr {
	p := ip6.MustParsePrefix("2001:100:a::/64")
	out := make([]ip6.Addr, n)
	for i := range out {
		out[i] = p.NthAddr(uint64(i))
	}
	return out
}

// TestStreamScanEquivalence: a scan collected in canonical shard order,
// DNS payloads deep-copied, is the same slice with the same deterministic
// stats for several worker counts and batch sizes.
func TestStreamScanEquivalence(t *testing.T) {
	n := testNet(t)
	targets := append(streamTargets(150),
		ip6.MustParseAddr("2001:100::80"),
		ip6.MustParseAddr("2001:100::53"),
		ip6.MustParseAddr("240e::1"))
	protos := allProtos()

	mk := func(workers, batch int) *Scanner {
		cfg := DefaultConfig(7)
		cfg.LossRate = 0.1
		cfg.Retries = 1
		cfg.Workers = workers
		cfg.BatchSize = batch
		return New(n, cfg)
	}

	base, baseStats, err := scanAll(context.Background(), mk(1, 4), targets, protos, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(targets)*len(protos) {
		t.Fatalf("results: %d, want %d", len(base), len(targets)*len(protos))
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, batch := range []int{1, 7, 1024} {
			got, stats, err := scanAll(context.Background(), mk(workers, batch), targets, protos, 9)
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("workers=%d batch=%d: results differ", workers, batch)
			}
			if stats.ProbesSent != baseStats.ProbesSent ||
				stats.Responses != baseStats.Responses ||
				stats.Successes != baseStats.Successes {
				t.Fatalf("workers=%d batch=%d: stats differ: %+v vs %+v", workers, batch, stats, baseStats)
			}
		}
	}
}

// TestStreamShardContract checks the delivery guarantees consumers build
// on: every target in a batch hashes to the batch's shard, same-shard
// batches arrive in Seq order, and full batches hold exactly BatchSize
// results.
func TestStreamShardContract(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(5)
	cfg.Workers = 4
	cfg.BatchSize = 8
	s := New(n, cfg)
	targets := streamTargets(500)

	var mu sync.Mutex
	nextSeq := make(map[int]int)
	total := 0
	_, err := s.StreamFrom(context.Background(), SliceSource(targets), []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80}, 3, func(b *Batch) error {
		mu.Lock()
		defer mu.Unlock()
		if b.Seq != nextSeq[b.Shard] {
			t.Errorf("shard %d: seq %d, want %d", b.Shard, b.Seq, nextSeq[b.Shard])
		}
		nextSeq[b.Shard]++
		if len(b.Results) == 0 || len(b.Results) > cfg.BatchSize {
			t.Errorf("batch size %d", len(b.Results))
		}
		if b.Stats.Batches != 1 {
			t.Errorf("batch stats batches: %d", b.Stats.Batches)
		}
		for i := range b.Results {
			if ip6.ShardOf(b.Results[i].Target) != b.Shard {
				t.Errorf("target %v in shard %d, canonical %d",
					b.Results[i].Target, b.Shard, ip6.ShardOf(b.Results[i].Target))
			}
			total++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(targets) * 2; total != want {
		t.Errorf("streamed %d results, want %d", total, want)
	}
}

// TestStreamSinkError: a sink error aborts the stream and surfaces.
func TestStreamSinkError(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(5)
	cfg.BatchSize = 4
	s := New(n, cfg)
	boom := errors.New("boom")
	_, err := s.StreamFrom(context.Background(), SliceSource(streamTargets(200)), []netmodel.Protocol{netmodel.ICMP}, 3, func(b *Batch) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestStreamCancel: a canceled context stops the stream with ctx.Err().
func TestStreamCancel(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(5)
	cfg.Workers = 1
	s := New(n, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.StreamFrom(ctx, SliceSource(streamTargets(5000)), allProtos(), 3, func(b *Batch) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamEmpty: no targets or protocols is a clean no-op.
func TestStreamEmpty(t *testing.T) {
	n := testNet(t)
	s := New(n, DefaultConfig(5))
	st, err := s.StreamFrom(context.Background(), SliceSource(nil), allProtos(), 3, func(b *Batch) error {
		t.Error("sink called for empty stream")
		return nil
	})
	if err != nil || st.ProbesSent != 0 || st.Batches != 0 {
		t.Errorf("empty stream: %+v, %v", st, err)
	}
}

// collectResponsive accumulates per-target success counts from a stream —
// an order-insensitive digest two runs can be compared by.
func collectResponsive(t *testing.T, stream func(Sink) (Stats, error)) (map[ip6.Addr]int, Stats) {
	t.Helper()
	var mu sync.Mutex
	succ := make(map[ip6.Addr]int)
	st, err := stream(func(b *Batch) error {
		mu.Lock()
		defer mu.Unlock()
		for i := range b.Results {
			if b.Results[i].Success {
				succ[b.Results[i].Target]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return succ, st
}

// TestStreamShardedEquivalence: feeding the engine pre-sharded target
// slices must reproduce a flat stream over the same targets exactly — no
// global concatenation required.
func TestStreamShardedEquivalence(t *testing.T) {
	n := testNet(t)
	targets := append(streamTargets(300),
		ip6.MustParseAddr("2001:100::80"),
		ip6.MustParseAddr("2001:100::53"),
		ip6.MustParseAddr("240e::1"))
	protos := allProtos()
	cfg := DefaultConfig(7)
	cfg.Workers = 4
	cfg.BatchSize = 16
	s := New(n, cfg)

	flat, flatStats := collectResponsive(t, func(sink Sink) (Stats, error) {
		return s.StreamFrom(context.Background(), SliceSource(targets), protos, 9, sink)
	})

	shards := make([][]ip6.Addr, ip6.AddrShards)
	for _, a := range targets {
		sh := ip6.ShardOf(a)
		shards[sh] = append(shards[sh], a)
	}
	sharded, shardedStats := collectResponsive(t, func(sink Sink) (Stats, error) {
		return s.StreamFrom(context.Background(), ShardSlices(shards), protos, 9, sink)
	})

	if !reflect.DeepEqual(flat, sharded) {
		t.Error("sharded stream responsive sets differ from flat stream")
	}
	if flatStats.ProbesSent != shardedStats.ProbesSent || flatStats.Successes != shardedStats.Successes {
		t.Errorf("stats differ: %+v vs %+v", flatStats, shardedStats)
	}
}

// TestSinkQueueBackpressure: with SinkQueueDepth set, a deliberately slow
// sink must still receive every batch exactly once, in per-shard Seq
// order, with outputs identical to the inline path — the queue is a
// throughput knob, not a semantics change.
func TestSinkQueueBackpressure(t *testing.T) {
	n := testNet(t)
	targets := streamTargets(400)
	protos := []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80}

	mk := func(depth int) *Scanner {
		cfg := DefaultConfig(5)
		cfg.Workers = 4
		cfg.BatchSize = 8
		cfg.SinkQueueDepth = depth
		return New(n, cfg)
	}

	inline, inlineStats := collectResponsive(t, func(sink Sink) (Stats, error) {
		return mk(0).StreamFrom(context.Background(), SliceSource(targets), protos, 3, sink)
	})

	s := mk(2)
	nextSeq := make(map[int]int)
	succ := make(map[ip6.Addr]int)
	st, err := s.StreamFrom(context.Background(), SliceSource(targets), protos, 3, func(b *Batch) error {
		// The delivery goroutine is single-threaded — no locking needed,
		// which is itself part of what the queue buys a slow consumer.
		if b.Seq != nextSeq[b.Shard] {
			t.Errorf("shard %d: seq %d, want %d", b.Shard, b.Seq, nextSeq[b.Shard])
		}
		nextSeq[b.Shard]++
		for i := range b.Results {
			if b.Results[i].Success {
				succ[b.Results[i].Target]++
			}
		}
		time.Sleep(100 * time.Microsecond) // deliberately slow consumer
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inline, succ) {
		t.Error("queued delivery changed the responsive sets")
	}
	if st.ProbesSent != inlineStats.ProbesSent || st.Batches != inlineStats.Batches {
		t.Errorf("queued stats differ: %+v vs %+v", st, inlineStats)
	}
}

// TestSinkQueueError: a sink error behind the queue still aborts the
// stream and surfaces from Stream.
func TestSinkQueueError(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(5)
	cfg.BatchSize = 4
	cfg.SinkQueueDepth = 3
	s := New(n, cfg)
	boom := errors.New("boom")
	seen := 0
	_, err := s.StreamFrom(context.Background(), SliceSource(streamTargets(200)), []netmodel.Protocol{netmodel.ICMP}, 3, func(b *Batch) error {
		seen++
		if seen == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if seen != 2 {
		t.Errorf("sink called %d times after error, want 2", seen)
	}
}

// TestProbeAccountingCountsActualAttempts is the probe-accounting fix: a
// lossless scan with retries configured must charge exactly one probe per
// (target, protocol) — retries that never fired are not counted — and a
// lossy scan must charge strictly between 1× and (1+Retries)× pairs.
func TestProbeAccountingCountsActualAttempts(t *testing.T) {
	n := testNet(t)
	targets := streamTargets(400)
	pairs := uint64(len(targets))

	cfg := DefaultConfig(11)
	cfg.LossRate = 0
	cfg.Retries = 3
	s := New(n, cfg)
	_, st, err := scanAll(context.Background(), s, targets, []netmodel.Protocol{netmodel.ICMP}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.ProbesSent != pairs {
		t.Errorf("lossless probes: %d, want %d (old accounting would say %d)",
			st.ProbesSent, pairs, pairs*4)
	}
	if want := float64(pairs) / float64(cfg.RatePPS); st.EstimatedSeconds != want {
		t.Errorf("estimated seconds: %v, want %v", st.EstimatedSeconds, want)
	}

	cfg.LossRate = 0.3
	s = New(n, cfg)
	_, st, err = scanAll(context.Background(), s, targets, []netmodel.Protocol{netmodel.ICMP}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.ProbesSent <= pairs || st.ProbesSent >= pairs*uint64(1+cfg.Retries) {
		t.Errorf("lossy probes: %d, want in (%d, %d)", st.ProbesSent, pairs, pairs*4)
	}
}

// TestProbeOneAttempts pins the per-result attempt counter.
func TestProbeOneAttempts(t *testing.T) {
	n := testNet(t)
	cfg := DefaultConfig(1)
	cfg.LossRate = 0
	cfg.Retries = 3
	s := New(n, cfg)
	if r := s.ProbeOne(ip6.MustParseAddr("2001:100::80"), netmodel.ICMP, 5); r.Attempts != 1 {
		t.Errorf("responding host attempts: %d", r.Attempts)
	}
	// A silent target charges the full retry budget: a real scanner
	// cannot tell silence from loss and retransmits every retry.
	if r := s.ProbeOne(ip6.MustParseAddr("2001:100::dead"), netmodel.ICMP, 5); r.Attempts != 4 {
		t.Errorf("silent host attempts: %d, want %d", r.Attempts, 1+cfg.Retries)
	}
}

// TestStreamProbeCountMatchesServed: the stream adds its probes to the
// network's ProbeCount once per segment, and the total must be exactly
// what a serial ProbeOne loop serves — probes that reached the network,
// so lost attempts (which Result.Attempts and Stats.ProbesSent do
// charge) are not among them.
func TestStreamProbeCountMatchesServed(t *testing.T) {
	n := testNet(t)
	targets := append(streamTargets(300),
		ip6.MustParseAddr("2001:100::80"),
		ip6.MustParseAddr("2001:100::53"),
		ip6.MustParseAddr("2001:100::dead"),
		ip6.MustParseAddr("240e::1"),
		ip6.MustParseAddr("240e::2"))
	protos := allProtos()
	cfg := DefaultConfig(5)
	cfg.LossRate = 0.3
	cfg.Retries = 2

	s := New(n, cfg)
	before := n.ProbeCount()
	for _, a := range targets {
		for _, p := range protos {
			s.ProbeOne(a, p, 5)
		}
	}
	serial := n.ProbeCount() - before

	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		s := New(n, cfg)
		before := n.ProbeCount()
		_, st, err := scanAll(context.Background(), s, targets, protos, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got := n.ProbeCount() - before; got != serial {
			t.Errorf("workers=%d: stream served %d probes, ProbeOne loop %d", workers, got, serial)
		}
		if serial >= st.ProbesSent {
			t.Errorf("workers=%d: served %d not below attempts %d at loss %.1f", workers, serial, st.ProbesSent, cfg.LossRate)
		}
	}
}
