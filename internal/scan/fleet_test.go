package scan_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/worldgen"
)

// The worker-scaling and worker-death tests of the sharded hand-out, run
// against a generated world (hence the external test package: worldgen
// and hlfile import scan). The world is generated once per binary and
// probed read-only by every test (the network is sealed after
// generation).
var (
	worldOnce sync.Once
	worldNet  *netmodel.Network
	worldErr  error
	testAddrs []ip6.Addr
)

var testProtos = []netmodel.Protocol{netmodel.ICMP, netmodel.TCP443, netmodel.TCP80, netmodel.UDP443, netmodel.UDP53}

func testWorld(t *testing.T) (*netmodel.Network, []ip6.Addr) {
	t.Helper()
	worldOnce.Do(func() {
		w, err := worldgen.Generate(worldgen.Params{
			Seed: 17, Scale: 1.0 / 10000, TailASes: 48, ScanIntervalDays: 7,
		})
		if err != nil {
			worldErr = err
			return
		}
		worldNet = w.Net
		r := rng.NewStream(17, "fleet-test-targets")
		prefixes := w.Net.AS.AnnouncedPrefixes()
		testAddrs = make([]ip6.Addr, 4096)
		for i := range testAddrs {
			testAddrs[i] = prefixes[r.Intn(len(prefixes))].RandomAddr(r)
		}
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return worldNet, testAddrs
}

// collector accumulates batch copies per shard — the canonical-merge
// consumer shape every real sink follows.
type collector struct {
	mu      sync.Mutex
	batches map[int][]scan.Batch
}

func newCollector() *collector { return &collector{batches: make(map[int][]scan.Batch)} }

func (c *collector) sink(b *scan.Batch) error {
	cp := scan.Batch{Shard: b.Shard, Seq: b.Seq, Stats: b.Stats}
	cp.Results = append([]scan.Result(nil), b.Results...)
	// The engine recycles DNS wire buffers with the batch; retained
	// copies deep-copy the payloads.
	for i := range cp.Results {
		if dns := cp.Results[i].DNS; len(dns) > 0 {
			deep := make([][]byte, len(dns))
			for j, w := range dns {
				deep[j] = append([]byte(nil), w...)
			}
			cp.Results[i].DNS = deep
		}
	}
	c.mu.Lock()
	c.batches[b.Shard] = append(c.batches[b.Shard], cp)
	c.mu.Unlock()
	return nil
}

// deterministic strips what measures the machine rather than the
// simulation — wall-clock nanos and the per-worker accounting — so stats
// compare across worker counts and deaths.
func deterministic(st scan.Stats) scan.Stats {
	out := st
	out.Workers, out.Reissued = nil, 0
	out.PerShard = append([]scan.ShardStats(nil), st.PerShard...)
	for i := range out.PerShard {
		out.PerShard[i].Nanos = 0
	}
	return out
}

// run streams src through a scanner built from cfg and collects what the
// sink saw.
func run(t *testing.T, cfg scan.Config, src scan.TargetSource) (*collector, scan.Stats) {
	t.Helper()
	net, _ := testWorld(t)
	got := newCollector()
	st, err := scan.New(net, cfg).StreamFrom(context.Background(), src, testProtos, 100, got.sink)
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

func requireSameBatches(t *testing.T, want, got *collector, label string) {
	t.Helper()
	if len(got.batches) != len(want.batches) {
		t.Fatalf("%s: %d shards with output, want %d", label, len(got.batches), len(want.batches))
	}
	for sh, wb := range want.batches {
		gb := got.batches[sh]
		if !reflect.DeepEqual(wb, gb) {
			t.Fatalf("%s: shard %d batches diverge (%d vs %d batches)", label, sh, len(gb), len(wb))
		}
	}
}

// killFirst returns a fault hook killing the first worker to reach a
// fault point of the wanted kind (mid-shard: a filled batch; otherwise
// shard pickup), and the victim's index (-1 until it fired). The victim
// is "whoever gets there first", not a fixed index: on a single-CPU box
// some worker goroutines may never be scheduled before the others drain
// the queue.
func killFirst(midShard bool) (scan.FaultHook, *atomic.Int32) {
	victim := new(atomic.Int32)
	victim.Store(-1)
	return func(p scan.FaultPoint) error {
		if (p.Batch >= 0) == midShard && victim.CompareAndSwap(-1, int32(p.Worker)) {
			return scan.ErrWorkerKilled
		}
		return nil
	}, victim
}

func requireDeath(t *testing.T, st scan.Stats, victim *atomic.Int32) {
	t.Helper()
	w := victim.Load()
	if w < 0 {
		t.Fatal("fault hook never fired")
	}
	if !st.Workers[w].Failed || st.Reissued < 1 {
		t.Fatalf("want worker %d failed with re-issues, got %+v reissued=%d", w, st.Workers[w], st.Reissued)
	}
}

// TestFleetMatchesSingleScanner pins the equivalence invariant: for any
// worker count — including more workers than shards — the engine
// delivers exactly the same batches, and the stats match up to
// wall-clock nanos.
func TestFleetMatchesSingleScanner(t *testing.T) {
	_, addrs := testWorld(t)
	single := scan.DefaultConfig(17)
	single.Workers = 1
	ref, refStats := run(t, single, scan.SliceSource(addrs))
	for _, workers := range []int{1, 2, 4, 8, 67} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := scan.DefaultConfig(17)
			cfg.Workers = workers
			got, st := run(t, cfg, scan.SliceSource(addrs))
			requireSameBatches(t, ref, got, fmt.Sprintf("workers=%d", workers))
			if !reflect.DeepEqual(deterministic(refStats), deterministic(st)) {
				t.Fatalf("workers=%d: stats diverge:\n ref %+v\n got %+v", workers, deterministic(refStats), deterministic(st))
			}
			if len(st.Workers) != workers {
				t.Fatalf("workers=%d: %d worker entries", workers, len(st.Workers))
			}
			shards := 0
			var probes uint64
			for _, ws := range st.Workers {
				shards += ws.Shards
				probes += ws.Probes
			}
			if shards != len(ref.batches) || probes != st.ProbesSent {
				t.Fatalf("workers=%d: worker stats cover %d shards / %d probes, want %d / %d",
					workers, shards, probes, len(ref.batches), st.ProbesSent)
			}
		})
	}
}

// TestFleetWorkerKilledMidShard kills the first worker to fill a batch,
// right after it did: the shard must be re-issued and the output must
// stay byte-identical — nothing from the dead worker's partial run
// leaks — whether batches reach the sink inline or through the delivery
// queue, and whether shard cursors come from a slice or a mapped .hl6.
func TestFleetWorkerKilledMidShard(t *testing.T) {
	_, addrs := testWorld(t)
	path := filepath.Join(t.TempDir(), "targets.hl6")
	if err := hlfile.Write(path, addrs); err != nil {
		t.Fatal(err)
	}
	reader, err := hlfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if !reader.Mapped() {
		t.Log("no mmap on this platform: the .hl6 case runs over ReadAt cursors")
	}

	for _, tc := range []struct {
		name  string
		depth int
		src   func() scan.TargetSource
	}{
		{"inline", 0, func() scan.TargetSource { return scan.SliceSource(addrs) }},
		{"sinkqueue", 2, func() scan.TargetSource { return scan.SliceSource(addrs) }},
		{"hl6", 0, reader.Source},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := scan.DefaultConfig(17)
			cfg.Workers = 4
			cfg.SinkQueueDepth = tc.depth
			ref, refStats := run(t, cfg, tc.src())

			hook, victim := killFirst(true)
			cfg.FaultHook = hook
			got, st := run(t, cfg, tc.src())
			requireDeath(t, st, victim)
			requireSameBatches(t, ref, got, "kill mid-shard")
			if !reflect.DeepEqual(deterministic(refStats), deterministic(st)) {
				t.Fatalf("stats diverge after a death:\n ref %+v\n got %+v", deterministic(refStats), deterministic(st))
			}
		})
	}
}

// TestFleetWorkerKilledAtPickup kills the first worker to pick a shard
// up, before it starts scanning — the other fault point — and expects
// the same re-issue path.
func TestFleetWorkerKilledAtPickup(t *testing.T) {
	_, addrs := testWorld(t)
	cfg := scan.DefaultConfig(17)
	cfg.Workers = 3
	ref, _ := run(t, cfg, scan.SliceSource(addrs))
	hook, victim := killFirst(false)
	cfg.FaultHook = hook
	got, st := run(t, cfg, scan.SliceSource(addrs))
	requireDeath(t, st, victim)
	requireSameBatches(t, ref, got, "kill at pickup")
}

// TestFleetAllWorkersKilled verifies the no-survivors case fails loudly
// instead of returning partial output as complete.
func TestFleetAllWorkersKilled(t *testing.T) {
	net, addrs := testWorld(t)
	cfg := scan.DefaultConfig(17)
	cfg.Workers = 3
	cfg.FaultHook = func(scan.FaultPoint) error { return scan.ErrWorkerKilled }
	_, err := scan.New(net, cfg).StreamFrom(context.Background(), scan.SliceSource(addrs), testProtos, 100,
		func(*scan.Batch) error { return errors.New("sink must not be called") })
	if err == nil {
		t.Fatal("scan succeeded with every worker killed")
	}
}

// TestFleetEmptySource: nothing to scan is a clean no-op.
func TestFleetEmptySource(t *testing.T) {
	net, _ := testWorld(t)
	cfg := scan.DefaultConfig(17)
	cfg.Workers = 4
	st, err := scan.New(net, cfg).StreamFrom(context.Background(), scan.SliceSource(nil), testProtos, 100,
		func(*scan.Batch) error { return errors.New("sink must not be called") })
	if err != nil {
		t.Fatal(err)
	}
	if st.ProbesSent != 0 || len(st.PerShard) != ip6.AddrShards {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// TestFleetSinkErrorFailsScan: a consumer error is a real failure, not
// a worker death — it aborts the whole run, fault hook or not.
func TestFleetSinkErrorFailsScan(t *testing.T) {
	net, addrs := testWorld(t)
	cfg := scan.DefaultConfig(17)
	cfg.Workers = 2
	cfg.FaultHook = func(scan.FaultPoint) error { return nil }
	sinkErr := errors.New("consumer broke")
	st, err := scan.New(net, cfg).StreamFrom(context.Background(), scan.SliceSource(addrs), testProtos, 100,
		func(*scan.Batch) error { return sinkErr })
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want %v", err, sinkErr)
	}
	if st.Reissued != 0 {
		t.Fatalf("sink error re-issued %d shards", st.Reissued)
	}
}

// TestFleetContextCancelled: a cancelled context surfaces as the scan
// error.
func TestFleetContextCancelled(t *testing.T) {
	net, addrs := testWorld(t)
	cfg := scan.DefaultConfig(17)
	cfg.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := scan.New(net, cfg).StreamFrom(ctx, scan.SliceSource(addrs), testProtos, 100,
		func(*scan.Batch) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// eofWatch wraps a sharded source and records when each shard's cursor
// reported io.EOF.
type eofWatch struct {
	scan.ShardedSource
	done [ip6.AddrShards]atomic.Bool
}

type eofCursor struct {
	src  scan.TargetSource
	done *atomic.Bool
}

func (w *eofWatch) ShardSource(sh int) scan.TargetSource {
	src := w.ShardedSource.ShardSource(sh)
	if src == nil {
		return nil
	}
	return &eofCursor{src: src, done: &w.done[sh]}
}

func (c *eofCursor) Next(buf []ip6.Addr) (int, error) {
	n, err := c.src.Next(buf)
	if err == io.EOF {
		c.done.Store(true)
	}
	return n, err
}

// TestStreamFromDeliversWhileProbing pins that abort-atomic delivery is
// paid only where a death is possible: with no fault hook, batches
// stream to the sink as they fill — a shard's first batch arrives before
// the shard's source is exhausted.
func TestStreamFromDeliversWhileProbing(t *testing.T) {
	net, addrs := testWorld(t)
	cfg := scan.DefaultConfig(17)
	cfg.Workers = 2
	cfg.BatchSize = 4
	cfg.SourceChunk = 4
	src := &eofWatch{ShardedSource: scan.SliceSource(addrs).(scan.ShardedSource)}
	var early atomic.Int32
	_, err := scan.New(net, cfg).StreamFrom(context.Background(), src, []netmodel.Protocol{netmodel.ICMP}, 100,
		func(b *scan.Batch) error {
			if b.Seq == 0 && !src.done[b.Shard].Load() {
				early.Add(1)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// 4096 random targets leave every shard far more than one 4-target
	// pull long, so every shard's first batch must have been early.
	if got := int(early.Load()); got != ip6.AddrShards {
		t.Fatalf("%d of %d shards delivered Seq 0 before their source ran dry", got, ip6.AddrShards)
	}
}
