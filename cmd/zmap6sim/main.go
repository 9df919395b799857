// Command zmap6sim scans targets in the synthetic Internet with the
// ZMapv6-style scanner and writes result CSV to stdout.
//
// Targets come from a file (one IPv6 address per line), a .hl6 binary
// hitlist (-hitlist, mmap-backed — the engine's probe workers pull each
// shard's run straight off disk, so hitlist-scale inputs scan with
// resident memory bounded by pull buffers, not input size), or, with
// -sample N, from a random sample of the world's announced space. Either
// way they reach the probe workers through a pull-based scan.TargetSource
// — no global target slice is ever built.
//
// Results stream through the sharded scan engine and are written as
// batches complete — like real ZMap, output row order is arrival order,
// not input order (rows within a batch stay in probe order).
// Pass -fleet N to run the scan on N probe workers with canonical-order
// output: each shard's rows buffer in a per-shard body and the bodies
// concatenate in shard order, byte-identical to a `-workers 1
// -sinkqueue 0` run for any N, even with workers killed mid-scan via
// -fleetkill. A per-worker summary table (shards/probes/ms) prints to
// stderr.
// -batchstats prints one stderr line per completed batch; -shardstats
// prints the full per-shard throughput table after the scan. -distinct
// additionally counts distinct responsive addresses; with -spill DIR the
// counting set spills sorted runs under -membudget MiB of resident
// memory, so even a scan with hundreds of millions of responders stays
// budget-bounded.
//
// -cpuprofile and -memprofile write pprof profiles of the scan (the CPU
// profile starts after world generation), so probe-hot-path regressions
// are diagnosable against a real scan shape without editing benchmarks.
// They cover -timeline too: the CPU profile spans every scan of the
// timeline (and the resume), the heap profile is taken after the last
// scan, and SIGINT/SIGTERM stops the timeline after the scan in flight
// with both profiles still written.
//
// -serve ADDR attaches the hitlist-as-a-service layer after the scan:
// the distinct-responder set (implies -distinct) freezes into a
// serve.Snapshot answered over DNS on ADDR until SIGINT/SIGTERM. The
// signal exit runs the same cleanup chain as a normal exit, so
// -cpuprofile flushes a valid profile either way.
//
// Usage:
//
//	zmap6sim -targets addrs.txt -protocols ICMP,UDP/53 -day 1376 > scan.csv
//	zmap6sim -hitlist targets.hl6 -spill /tmp/spill -membudget 64 > scan.csv
//	zmap6sim -sample 10000 -batchstats > scan.csv
//	zmap6sim -sample 100000 -cpuprofile cpu.out -memprofile mem.out > /dev/null
//	zmap6sim -sample 100000 -serve :5353 > scan.csv
//	zmap6sim -timeline -scale 0.00025 -stride 8 -cpuprofile cpu.out -memprofile mem.out > /dev/null
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"hitlist6/internal/dnswire"
	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/serve"
	"hitlist6/internal/worldgen"
)

// lineSource streams a target file line by line as a scan.TargetSource:
// the file is parsed at pull pace and never held in memory.
type lineSource struct {
	f  *os.File
	sc *bufio.Scanner
}

func openLineSource(path string) (*lineSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &lineSource{f: f, sc: bufio.NewScanner(f)}, nil
}

func (s *lineSource) Next(buf []ip6.Addr) (int, error) {
	n := 0
	for n < len(buf) {
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				return n, fmt.Errorf("reading targets: %w", err)
			}
			return n, io.EOF
		}
		line := strings.TrimSpace(s.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		a, err := ip6.ParseAddr(line)
		if err != nil {
			return n, err
		}
		buf[n] = a
		n++
	}
	return n, nil
}

func (s *lineSource) Close() error { return s.f.Close() }

// sampleSource draws N random addresses from the announced space on
// demand — the deterministic stream equals the former materialized
// sample exactly (same rng stream, same draw order).
type sampleSource struct {
	r        *rng.Stream
	prefixes []ip6.Prefix
	left     int
}

func (s *sampleSource) Next(buf []ip6.Addr) (int, error) {
	n := 0
	for n < len(buf) && s.left > 0 {
		buf[n] = s.prefixes[s.r.Intn(len(s.prefixes))].RandomAddr(s.r)
		n++
		s.left--
	}
	if s.left == 0 {
		return n, io.EOF
	}
	return n, nil
}

func main() {
	var (
		targetsFile = flag.String("targets", "", "file with one IPv6 address per line")
		hitlist     = flag.String("hitlist", "", "binary .hl6 hitlist file to scan (mmap-backed, sharded)")
		sample      = flag.Int("sample", 0, "scan N random addresses from announced space instead")
		distinct    = flag.Bool("distinct", false, "count distinct responsive addresses (resident set unless -spill)")
		spillDir    = flag.String("spill", "", "spill directory for the distinct-responder set (implies -distinct)")
		memBudget   = flag.Int("membudget", 64, "resident budget in MiB for the spilled distinct set")
		protocols   = flag.String("protocols", "ICMP,TCP/443,TCP/80,UDP/443,UDP/53", "comma-separated protocol list")
		day         = flag.Int("day", worldgen.EndDay, "simulation day of the scan")
		scale       = flag.Float64("scale", 1.0/500, "world scale")
		seed        = flag.Uint64("seed", 42, "world seed")
		loss        = flag.Float64("loss", 0.01, "per-probe loss rate")
		retries     = flag.Int("retries", 1, "probe retransmissions")
		qname       = flag.String("qname", "www.google.com", "DNS probe question")
		workers     = flag.Int("workers", 0, "probe concurrency (0 = GOMAXPROCS)")
		batchSize   = flag.Int("batch", 0, "streamed batch size (0 = default)")
		chunk       = flag.Int("chunk", 0, "target-source pull chunk size (0 = default)")
		sinkQueue   = flag.Int("sinkqueue", 8, "bounded CSV delivery queue depth (0 = write inline on probe workers)")
		fleetN      = flag.Int("fleet", 0, "run the scan on N probe workers; CSV comes out in canonical shard order, byte-identical to -workers 1 -sinkqueue 0")
		fleetKill   = flag.String("fleetkill", "", "comma-separated fleet worker indices to kill at their first fault point (recovery drill; leave at least one survivor)")
		batchStats  = flag.Bool("batchstats", false, "print per-batch throughput to stderr")
		shardStats  = flag.Bool("shardstats", false, "print the full per-shard throughput table to stderr")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the scan to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile (taken after the scan) to this file")
		serveAddr   = flag.String("serve", "", "after the scan, answer liveness queries for the distinct-responder set over DNS on this UDP address until SIGINT/SIGTERM (implies -distinct)")
		serveZone   = flag.String("servezone", "hitlist6.serve", "DNS zone for -serve")
		timeline    = flag.Bool("timeline", false, "run the full service timeline (one hitlist6-style CSV row per scan) instead of one scan")
		stride      = flag.Int("stride", 1, "-timeline: run every N-th scheduled scan")
		ckptDir     = flag.String("ckpt", "", "-timeline: checkpoint directory (enables checkpoints)")
		ckptEvery   = flag.Int("ckptevery", 1, "-timeline: checkpoint after every Nth scan (0 = no automatic checkpoints)")
		ckptFull    = flag.Int("ckptfull", 0, "-timeline: full (compaction) checkpoint every Nth checkpoint, deltas in between (0 = default cadence, 1 = every checkpoint full)")
		resume      = flag.Bool("resume", false, "-timeline: resume from the checkpoint in -ckpt, re-emitting completed rows")
		pause       = flag.Duration("pause", 0, "-timeline: pause between scans")
	)
	flag.Parse()
	prof := &profiles{cpuPath: *cpuProfile, memPath: *memProfile}
	if *timeline {
		timelineMain(*scale, *seed, *stride, *ckptDir, *ckptEvery, *ckptFull, *resume, *pause, prof)
		return
	}
	if *serveAddr != "" && *spillDir == "" {
		*distinct = true
	}
	// An unencodable question would only fail on the first UDP/53 probe,
	// inside a probe worker; refuse it as a usage error up front.
	if _, err := dnswire.NewQuery(0, *qname, dnswire.TypeAAAA).Encode(); err != nil {
		fmt.Fprintf(os.Stderr, "bad -qname: %v\n", err)
		os.Exit(2)
	}

	wp := worldgen.TimelineParams(*seed)
	wp.Scale = *scale
	w, err := worldgen.Generate(wp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "generating world: %v\n", err)
		os.Exit(1)
	}

	var protos []netmodel.Protocol
	for _, s := range strings.Split(*protocols, ",") {
		p, err := netmodel.ParseProtocol(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		protos = append(protos, p)
	}

	var src scan.TargetSource
	switch {
	case *hitlist != "":
		hs, err := hlfile.OpenSource(*hitlist)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening hitlist: %v\n", err)
			os.Exit(1)
		}
		src = hs
	case *targetsFile != "":
		ls, err := openLineSource(*targetsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening targets: %v\n", err)
			os.Exit(1)
		}
		src = ls
	case *sample > 0:
		src = &sampleSource{
			r:        rng.NewStream(*seed, "zmap6sim-sample"),
			prefixes: w.Net.AS.AnnouncedPrefixes(),
			left:     *sample,
		}
	default:
		fmt.Fprintln(os.Stderr, "need -targets, -hitlist or -sample")
		os.Exit(2)
	}

	// Distinct-responder accounting: a resident set by default, a
	// disk-spilling one under -spill so the counting memory is bounded by
	// -membudget rather than the responder count. cleanup releases the
	// scratch file; die routes error exits through it so a failed scan
	// never leaves multi-GB run files in the user's spill directory
	// (os.Exit skips defers).
	var responders, spillSet *ip6.SpillSet
	cleanup := func() {}
	if *spillDir != "" {
		budget := int64(*memBudget) << 20 / ip6.AddrBytes / ip6.AddrShards
		ss, err := ip6.NewSpillSet(*spillDir, int(budget))
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating spill set: %v\n", err)
			os.Exit(1)
		}
		cleanup = func() { ss.Close() }
		spillSet = ss
		responders = ss
	} else if *distinct {
		responders = ip6.NewResidentSet()
	}
	die := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format, a...)
		cleanup()
		os.Exit(1)
	}

	cfg := scan.DefaultConfig(*seed)
	cfg.LossRate = *loss
	cfg.Retries = *retries
	cfg.QName = *qname
	cfg.Workers = *workers
	cfg.BatchSize = *batchSize
	cfg.SourceChunk = *chunk
	cfg.SinkQueueDepth = *sinkQueue
	if *fleetN > 0 {
		cfg.Workers = *fleetN
		// The per-shard bodies share nothing, so workers write them
		// inline; the queue exists to keep workers off one shared stdout.
		cfg.SinkQueueDepth = 0
		if *fleetKill != "" {
			kill := make(map[int]bool)
			for _, f := range strings.Split(*fleetKill, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					die("parsing -fleetkill: %v\n", err)
				}
				kill[n] = true
			}
			cfg.FaultHook = func(p scan.FaultPoint) error {
				if kill[p.Worker] {
					return scan.ErrWorkerKilled
				}
				return nil
			}
		}
	}
	s := scan.New(w.Net, cfg)

	// Profiling hooks: probe-hot-path regressions are easiest to diagnose
	// against a real scan shape, so the scan loop is profiled right here
	// instead of by editing benchmarks. The CPU profile starts after
	// world generation — the scan is what the flag is for — and is
	// flushed through the cleanup chain so error exits keep it too.
	if err := prof.start(); err != nil {
		die("%v\n", err)
	}
	prev := cleanup
	cleanup = func() {
		prof.stopCPU()
		prev()
	}

	out, err := scan.NewWriter(os.Stdout)
	if err != nil {
		die("%v\n", err)
	}

	var stats scan.Stats
	ctx := context.Background()
	if *fleetN > 0 {
		// Canonical-order mode: each shard's rows buffer in a per-shard
		// body and the bodies concatenate in canonical shard order —
		// byte-identical to a `-workers 1 -sinkqueue 0` run regardless of
		// worker count, hand-out order, or killed workers.
		shSrc, ok := src.(scan.ShardedSource)
		if !ok {
			// Line and sample sources are plain streams; shard them by
			// materializing the target list.
			targets, err := scan.Collect(src)
			if err != nil {
				die("collecting targets: %v\n", err)
			}
			shSrc = scan.SliceSource(targets).(scan.ShardedSource)
		}
		var (
			mu   sync.Mutex // batch-stats stderr lines only
			bufs [ip6.AddrShards]bytes.Buffer
			ws   [ip6.AddrShards]*scan.Writer
		)
		st, err := s.StreamFrom(ctx, shSrc, protos, *day, func(b *scan.Batch) error {
			// Same-shard sink calls are sequential, so the per-shard
			// writer slots need no locking.
			if ws[b.Shard] == nil {
				ws[b.Shard] = scan.NewBodyWriter(&bufs[b.Shard])
			}
			for _, r := range b.Results {
				if responders != nil && r.Success {
					responders.AddToShard(b.Shard, r.Target)
				}
				if err := ws[b.Shard].Write(r); err != nil {
					return err
				}
			}
			if *batchStats {
				mu.Lock()
				fmt.Fprintf(os.Stderr, "batch shard=%d seq=%d results=%d probes=%d responses=%d successes=%d\n",
					b.Shard, b.Seq, len(b.Results), b.Stats.ProbesSent, b.Stats.Responses, b.Stats.Successes)
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			die("scanning: %v\n", err)
		}
		// Concurrent AddToShard rules out the streaming path's periodic
		// compaction; one pass here bounds the run fan-in just the same.
		if spillSet != nil {
			if err := spillSet.Compact(); err != nil {
				die("compacting spill set: %v\n", err)
			}
		}
		stats = st
		if err := out.Flush(); err != nil { // header row
			die("%v\n", err)
		}
		for sh := 0; sh < ip6.AddrShards; sh++ {
			if ws[sh] == nil {
				continue
			}
			if err := ws[sh].Flush(); err != nil {
				die("%v\n", err)
			}
			if _, err := os.Stdout.Write(bufs[sh].Bytes()); err != nil {
				die("%v\n", err)
			}
		}
	} else {
		// Targets flow source → router → probe workers → CSV, all
		// streaming. With the default bounded sink queue, one delivery
		// goroutine writes CSV while probe workers run ahead (and block
		// on the full queue instead of on stdout — backpressure, not
		// serialization). -sinkqueue 0 falls back to inline sink calls
		// from many workers at once. The mutex covers both modes; it is
		// uncontended when the delivery goroutine is the only caller.
		var mu sync.Mutex
		batches := 0
		st, err := s.StreamFrom(ctx, src, protos, *day, func(b *scan.Batch) error {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range b.Results {
				if responders != nil && r.Success {
					responders.AddToShard(b.Shard, r.Target)
				}
				if err := out.Write(r); err != nil {
					return err
				}
			}
			// Periodic compaction keeps the spill set's per-shard run
			// fan-in near 1, so membership probes stay one fence lookup
			// instead of degrading with every frozen run. Safe here: the
			// mutex serializes all AddToShard calls with the compactor.
			if spillSet != nil {
				if batches++; batches%1024 == 0 {
					if err := spillSet.Compact(); err != nil {
						return err
					}
				}
			}
			if *batchStats {
				fmt.Fprintf(os.Stderr, "batch shard=%d seq=%d results=%d probes=%d responses=%d successes=%d\n",
					b.Shard, b.Seq, len(b.Results), b.Stats.ProbesSent, b.Stats.Responses, b.Stats.Successes)
			}
			return nil
		})
		if err != nil {
			die("scanning: %v\n", err)
		}
		stats = st
	}
	if err := out.Flush(); err != nil {
		die("%v\n", err)
	}
	fmt.Fprintf(os.Stderr, "probes=%d responses=%d successes=%d batches=%d est-duration=%.1fs\n",
		stats.ProbesSent, stats.Responses, stats.Successes, stats.Batches, stats.EstimatedSeconds)
	if responders != nil {
		if spillSet != nil {
			if err := spillSet.Err(); err != nil {
				die("spill set: %v\n", err)
			}
			fmt.Fprintf(os.Stderr, "distinct-responsive=%d spilled-runs=%d spilled-bytes=%d\n",
				spillSet.Len(), spillSet.FrozenRuns(), spillSet.SpilledBytes())
		} else {
			fmt.Fprintf(os.Stderr, "distinct-responsive=%d\n", responders.Len())
		}
	}
	printShardSummary(os.Stderr, stats.PerShard, *shardStats)
	if *fleetN > 0 {
		printFleetSummary(os.Stderr, stats)
	}
	// -serve attach mode: freeze the responder set into a snapshot and
	// answer DNS liveness queries until a signal arrives. The signal only
	// breaks the wait — the function still falls through to the shared
	// exit tail below, so the cleanup chain (CPU profile flush, spill
	// scratch release) runs exactly as on a plain exit.
	if *serveAddr != "" {
		conn, err := net.ListenPacket("udp", *serveAddr)
		if err != nil {
			die("listening for -serve: %v\n", err)
		}
		view, err := responders.View()
		if err != nil {
			die("reading responders: %v\n", err)
		}
		h := serve.NewHandle()
		var perProto [netmodel.NumProtocols]*ip6.SortedShardSet
		h.Publish(serve.NewSnapshot(*day, view, perProto, nil, nil))
		responder := serve.NewDNSResponder(h, *serveZone)
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			go func() {
				if err := serve.ServeUDP(conn, responder); err != nil {
					fmt.Fprintf(os.Stderr, "serve: %v\n", err)
				}
			}()
		}
		fmt.Fprintf(os.Stderr, "serving %d distinct responders over DNS on %s zone %s\n",
			responders.Len(), conn.LocalAddr(), responder.Zone())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		conn.Close()
	}
	prof.writeHeap()
	cleanup()
}

// profiles owns -cpuprofile and -memprofile for either mode. Callers
// start the CPU profile after world generation, so the scans are what
// it samples; writeHeap takes the heap profile after the last scan.
type profiles struct {
	cpuPath, memPath string
	cpu              *os.File
}

// start begins the CPU profile, if one was asked for.
func (p *profiles) start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return fmt.Errorf("creating cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("starting cpu profile: %w", err)
	}
	p.cpu = f
	return nil
}

// stopCPU flushes the CPU profile; safe to call more than once.
func (p *profiles) stopCPU() {
	if p.cpu == nil {
		return
	}
	pprof.StopCPUProfile()
	p.cpu.Close()
	p.cpu = nil
}

// writeHeap writes the heap profile, if one was asked for.
func (p *profiles) writeHeap() {
	if p.memPath == "" {
		return
	}
	f, err := os.Create(p.memPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "creating mem profile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC() // surface live heap, not transient garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "writing mem profile: %v\n", err)
	}
}

// printFleetSummary renders the per-worker table: shard counts, probes,
// probe wall-clock and survival status.
func printFleetSummary(w io.Writer, st scan.Stats) {
	fmt.Fprintf(w, "fleet: workers=%d reissued=%d\n", len(st.Workers), st.Reissued)
	fmt.Fprintf(w, "%6s %8s %12s %10s  %s\n", "worker", "shards", "probes", "ms", "status")
	for i, ws := range st.Workers {
		status := "ok"
		if ws.Failed {
			status = "killed"
		}
		fmt.Fprintf(w, "%6d %8d %12d %10.2f  %s\n",
			i, ws.Shards, ws.Probes, float64(ws.Nanos)/1e6, status)
	}
}

// printShardSummary renders the engine's per-shard throughput: always a
// one-line spread summary (the raw signal for adaptive rate control),
// and with full=true the whole table for active shards.
func printShardSummary(w io.Writer, shards []scan.ShardStats, full bool) {
	if len(shards) == 0 {
		return
	}
	type row struct {
		shard int
		s     scan.ShardStats
	}
	var active []row
	for i, s := range shards {
		if s.ProbesSent > 0 {
			active = append(active, row{i, s})
		}
	}
	if len(active) == 0 {
		return
	}
	sort.Slice(active, func(i, j int) bool { return active[i].s.ProbesSent > active[j].s.ProbesSent })
	var probes uint64
	var nanos int64
	for _, r := range active {
		probes += r.s.ProbesSent
		nanos += r.s.Nanos
	}
	busiest, laziest := active[0], active[len(active)-1]
	fmt.Fprintf(w, "shards: active=%d/%d probes avg=%d max=%d (shard %d) min=%d (shard %d) probe-time=%.1fms\n",
		len(active), len(shards), probes/uint64(len(active)),
		busiest.s.ProbesSent, busiest.shard, laziest.s.ProbesSent, laziest.shard,
		float64(nanos)/1e6)
	if !full {
		return
	}
	fmt.Fprintf(w, "%6s %10s %10s %10s %8s %10s\n", "shard", "probes", "responses", "successes", "batches", "ms")
	sort.Slice(active, func(i, j int) bool { return active[i].shard < active[j].shard })
	for _, r := range active {
		fmt.Fprintf(w, "%6d %10d %10d %10d %8d %10.2f\n",
			r.shard, r.s.ProbesSent, r.s.Responses, r.s.Successes, r.s.Batches, float64(r.s.Nanos)/1e6)
	}
}
