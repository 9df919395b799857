package scan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
)

// The streaming engine. Targets are partitioned into ip6.AddrShards
// deterministic shards by address hash; each shard is probed sequentially
// by one worker at a time, and results are delivered to the consumer in
// fixed-size batches as they complete. Because shard membership depends
// only on the address and per-probe outcomes depend only on
// (address, protocol, day, seed), the batch sequence of a shard is
// bit-identical regardless of worker count, and any consumer that
// accumulates per shard and merges in canonical shard order is
// deterministic by construction.
//
// The one entry point is StreamFrom, which pulls targets from a
// TargetSource (see source.go). Sources that are already partitioned
// (ShardedSource) feed probe workers directly with no routing pass;
// everything else flows through a router that shards pulled chunks into
// bounded per-shard queues — either way, no full target set is ever
// materialized inside the engine.

// DefaultBatchSize is the streamed batch size when Config.BatchSize is 0.
const DefaultBatchSize = 256

// DefaultSourceChunk is the per-pull target count when Config.SourceChunk
// is 0.
const DefaultSourceChunk = 1024

// Batch is one unit of streamed scan results: a contiguous slice of the
// (target, protocol) probe sequence of a single shard.
type Batch struct {
	// Shard is the ip6.ShardOf shard every target in this batch hashes to.
	Shard int
	// Seq is the batch's sequence number within its shard, from 0.
	Seq int
	// Results holds the probe outcomes, in (target, protocol) order along
	// the shard's deterministic target sequence.
	Results []Result
	// Stats covers this batch only (per-batch throughput accounting).
	Stats Stats

	// start is the batch's offset in the shard's flat probe sequence.
	start int

	// arena owns the DNS wire buffers the batch's Results reference
	// (UDP/53 streams only). It is recycled together with the Results
	// buffer, which is why sinks must deep-copy DNS payloads they want
	// to retain past the sink call.
	arena *netmodel.WireArena
}

// Offset returns the position of Results[0] in the shard's flat
// (target, protocol) probe sequence: Results[i] is protocol
// (Offset()+i) % len(protos) of the shard's target (Offset()+i) /
// len(protos). Sinks over a source whose per-shard order they know (the
// APD slot queue) index their own per-shard state with it instead of
// looking results up by address.
func (b *Batch) Offset() int { return b.start }

// Sink consumes streamed batches. It may be invoked concurrently from
// multiple worker goroutines, but calls for the same shard are sequential
// and in Seq order; per-shard state therefore needs no locking. The batch
// and its Results must not be retained after return. A non-nil error
// aborts the stream.
type Sink func(*Batch) error

// buildPlans partitions targets into per-shard probe plans, preserving
// input order within each shard. Two passes: count, then fill one
// exactly-sized backing array shared by all shards (append-growth on 64
// slices would roughly double the allocation).
func buildPlans(targets []ip6.Addr) [][]ip6.Addr {
	var counts [ip6.AddrShards]int
	for _, t := range targets {
		counts[ip6.ShardOf(t)]++
	}
	buf := make([]ip6.Addr, 0, len(targets))
	plans := make([][]ip6.Addr, ip6.AddrShards)
	off := 0
	for sh := range plans {
		end := off + counts[sh]
		plans[sh] = buf[off:off:end]
		off = end
	}
	for _, t := range targets {
		sh := ip6.ShardOf(t)
		plans[sh] = append(plans[sh], t)
	}
	return plans
}

// StreamFrom pulls targets from src, shards them, probes every
// (target, protocol) pair for the given day on the worker pool, and
// delivers results to sink in batches of Config.BatchSize — without ever
// holding the full target set. Sources implementing ShardedSource are
// pulled per shard directly by the probe workers; any other source is
// pulled in Config.SourceChunk-sized chunks and routed into bounded
// per-shard queues, with the puller blocking (backpressure) once too many
// routed targets are waiting to be probed. Outputs are bit-identical for
// any worker count, batch size or chunk size; the per-shard batch
// sequence equals that of a stream over the materialized source. The
// context cancels the stream between batches; batches already delivered
// stand, and ctx.Err() is returned. If src implements io.Closer it is
// closed when the stream ends, on every path.
func (s *Scanner) StreamFrom(ctx context.Context, src TargetSource, protos []netmodel.Protocol, day int, sink Sink) (Stats, error) {
	var total streamTotals
	if src == nil {
		return total.stats(s.cfg.RatePPS), nil
	}
	defer closeSource(src)
	if len(protos) == 0 {
		return total.stats(s.cfg.RatePPS), nil
	}

	run := &streamRun{
		s:      s,
		ctx:    ctx,
		protos: protos,
		day:    day,
		sink:   sink,
		total:  &total,
		stop:   make(chan struct{}),
	}
	run.batchSize = s.cfg.BatchSize
	if run.batchSize <= 0 {
		run.batchSize = DefaultBatchSize
	}
	run.chunk = s.cfg.SourceChunk
	if run.chunk <= 0 {
		run.chunk = DefaultSourceChunk
	}
	if s.cfg.SinkQueueDepth > 0 {
		run.queue = newSinkQueue(s, sink, s.cfg.SinkQueueDepth, run.fail)
	}
	if s.dnsQuery != nil && slices.Contains(protos, netmodel.UDP53) {
		plan := s.net.PlanDNS(s.dnsQuery, day)
		run.plan = &plan
	}

	if sharded, ok := src.(ShardedSource); ok {
		run.runSharded(sharded)
	} else {
		run.runRouted(src)
	}

	if run.queue != nil {
		run.queue.close() // drains and waits; a sink error surfaces via fail
	}
	st := total.stats(s.cfg.RatePPS)
	st.Workers, st.Reissued = run.workers, run.reissued
	return st, run.err()
}

// errStreamStopped is the internal signal that another worker already
// failed the stream: unwind without flushing, without overwriting the
// original error.
var errStreamStopped = errors.New("scan: stream stopped")

// errKilled is the internal signal that the fault hook killed the worker
// holding a shard: the worker unwinds and puts the shard back — a death,
// not a stream failure.
var errKilled = errors.New("scan: worker killed by fault hook")

// streamRun is the shared state of one StreamFrom call.
type streamRun struct {
	s      *Scanner
	ctx    context.Context
	protos []netmodel.Protocol
	day    int
	sink   Sink
	queue  *sinkQueue
	total  *streamTotals

	// plan is the stream's one DNS plan, shared read-only by every
	// UDP/53 probe: nil unless the scanner has a fixed query.
	plan *netmodel.DNSPlan

	batchSize int
	chunk     int

	// workers and reissued are the sharded path's per-worker accounting,
	// read once every worker has exited.
	workers  []WorkerStats
	reissued int

	stop     chan struct{}
	stopOnce sync.Once
	onStop   func() // set before workers start; wakes path-specific waiters
	errMu    sync.Mutex
	firstErr error
}

func (r *streamRun) fail(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
	r.stopOnce.Do(func() {
		close(r.stop)
		if r.onStop != nil {
			r.onStop()
		}
	})
}

func (r *streamRun) err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

// shardProbe is the persistent probe/flush state of one shard within a
// stream. Segments of the shard's target sequence arrive via probe() —
// possibly many, pulled or routed incrementally — and batches flush at
// exact BatchSize boundaries regardless of how the sequence was
// segmented, so the delivered batch sequence is identical to probing the
// whole shard at once. Only the goroutine currently owning the shard
// touches it.
type shardProbe struct {
	run      *streamRun
	shard    int
	b        *Batch
	pos      int
	need     int
	released bool

	// hold makes delivery abort-atomic: filled batches wait on held until
	// the shard completes, so a worker killed mid-shard (worker is its
	// index, for the fault hook) leaves no trace at the consumer. Set only
	// where a death is possible — the sharded path under a fault hook.
	hold   bool
	worker int
	held   []*Batch
}

// newShardProbe starts a shard's probe state. size is the shard's total
// target count when known, -1 otherwise — it only tunes the first
// buffer's capacity.
func (r *streamRun) newShardProbe(shard int, size int) shardProbe {
	need := r.batchSize
	if size >= 0 {
		if n := size * len(r.protos); n < need {
			need = n
		}
	}
	b := &Batch{Shard: shard}
	b.Results = r.s.getBuf(need)
	b.arena = r.s.getArena(r.protos)
	return shardProbe{run: r, shard: shard, b: b, need: need}
}

// flush delivers the current batch: inline to the sink (the buffer is
// reused in place), through the bounded delivery queue when one is
// configured, or onto the held list under abort-atomic delivery.
func (p *shardProbe) flush() error {
	if len(p.b.Results) == 0 {
		return nil
	}
	r := p.run
	p.b.Stats.EstimatedSeconds = float64(p.b.Stats.ProbesSent) / float64(r.s.cfg.RatePPS)
	p.b.Stats.Batches = 1
	if !p.hold && r.queue == nil {
		r.total.add(p.shard, &p.b.Stats)
		if err := r.sink(p.b); err != nil {
			return err
		}
		p.b.Seq++
		p.b.start = p.pos
		p.b.Results = p.b.Results[:0]
		// The sink has consumed (or deep-copied) every result, so the DNS
		// buffers its rows referenced are free to reuse for the next batch.
		p.b.arena.Reset()
		p.b.Stats = Stats{}
		return nil
	}
	// Ownership of the filled batch moves on — to the delivery goroutine
	// or the held list, either of which pools its buffer once the sink
	// has seen it; probing continues immediately into a fresh buffer.
	full := p.b
	p.b = &Batch{Shard: p.shard, Seq: full.Seq + 1, start: p.pos}
	p.b.Results = r.s.getBuf(p.need)
	p.b.arena = r.s.getArena(r.protos)
	if !p.hold {
		return r.deliver(full)
	}
	p.held = append(p.held, full)
	if r.s.cfg.FaultHook(FaultPoint{Worker: p.worker, Shard: p.shard, Batch: full.Seq}) != nil {
		return errKilled
	}
	return nil
}

// deliver hands the consumer a filled batch no probe owns any more:
// through the delivery queue (which pools the buffers after the sink
// call) when one is configured, inline otherwise.
func (r *streamRun) deliver(b *Batch) error {
	r.total.add(b.Shard, &b.Stats)
	if r.queue != nil {
		r.queue.enqueue(b)
		return nil
	}
	err := r.sink(b)
	r.s.putBuf(b.Results)
	r.s.putArena(b.arena)
	return err
}

// probe runs one segment of the shard's target sequence target-major —
// each target is resolved once, then probed on every protocol — flushing
// full batches as they complete. It returns ctx.Err() on cancellation,
// errStreamStopped when another worker failed the stream, a sink error,
// or an error naming a target that does not belong to this shard.
func (p *shardProbe) probe(targets []ip6.Addr) error {
	r := p.run
	t0 := time.Now()
	// Probes served are added to the network's count once per segment,
	// on every exit, instead of once per probe.
	var served uint64
	defer func() {
		r.s.net.CountProbes(p.shard, served)
		r.total.addNanos(p.shard, time.Since(t0))
	}()
	var t target
	for _, a := range targets {
		// The one ShardOf per target: the shard keys the host lookup and
		// the digest every consumer merges by, so a source that mis-shards
		// an address fails the stream instead of landing it silently.
		if sh := ip6.ShardOf(a); sh != p.shard {
			return fmt.Errorf("scan: source yielded %v (shard %d) in shard %d", a, sh, p.shard)
		}
		r.s.resolve(&t, a, p.shard, r.day)
		for _, proto := range r.protos {
			p.b.Results = append(p.b.Results, Result{})
			res := &p.b.Results[len(p.b.Results)-1]
			served += r.s.probe(&t, proto, p.b.arena, r.plan, res)
			p.b.Stats.ProbesSent += uint64(res.Attempts)
			if res.Kind != netmodel.RespNone {
				p.b.Stats.Responses++
			}
			if res.Success {
				p.b.Stats.Successes++
			}
			p.pos++
			if len(p.b.Results) == r.batchSize {
				if err := p.flush(); err != nil {
					return err
				}
				// Cancellation is checked at batch granularity: cheap
				// enough to stay responsive, coarse enough to keep the
				// hot loop branch-free.
				select {
				case <-r.ctx.Done():
					return r.ctx.Err()
				case <-r.stop:
					return errStreamStopped
				default:
				}
			}
		}
	}
	return nil
}

// finish flushes the trailing partial batch, delivers the held batches
// in Seq order — the shard is complete, nothing can take them back —
// and releases the buffers.
func (p *shardProbe) finish() error {
	err := p.flush()
	for err == nil && len(p.held) > 0 {
		b := p.held[0]
		p.held = p.held[1:]
		err = p.run.deliver(b)
	}
	p.release()
	return err
}

// release returns the probe's buffers and arenas — the current batch and
// anything still held — to their pools; idempotent.
func (p *shardProbe) release() {
	if p.released {
		return
	}
	p.released = true
	for _, b := range p.held {
		p.run.s.putBuf(b.Results)
		p.run.s.putArena(b.arena)
	}
	p.held = nil
	p.run.s.putBuf(p.b.Results)
	p.run.s.putArena(p.b.arena)
	p.b.Results = nil
	p.b.arena = nil
}

// FaultPoint identifies one injection opportunity of the sharded path:
// Batch is -1 when the worker picks the shard up, otherwise the
// shard-local batch Seq it just filled.
type FaultPoint struct {
	Worker int
	Shard  int
	Batch  int
}

// FaultHook is the injectable worker failure (tests, recovery drills):
// called at every FaultPoint, a non-nil return kills that worker on the
// spot. Its unfinished shard — none of which has reached the sink — is
// put back for the survivors to probe from a fresh ShardSource cursor,
// so outputs stay bit-identical as long as one worker survives. It is
// invoked concurrently from worker goroutines.
type FaultHook func(FaultPoint) error

// ErrWorkerKilled is a convenience error for FaultHooks; any non-nil
// hook error has the same effect.
var ErrWorkerKilled = errors.New("scan: worker killed")

// WorkerStats summarizes one probe worker's share of a sharded stream.
type WorkerStats struct {
	// Shards is how many shards this worker completed.
	Shards int
	// Steals is always 0 (a shared queue has nothing to steal); the field
	// exists only for bench/probes.go and goes in the next benchmark PR.
	Steals int
	// Probes is the probe count across the worker's completed shards.
	Probes uint64
	// Nanos is wall-clock probe time across the worker's completed
	// shards (nondeterministic, like ShardStats.Nanos).
	Nanos int64
	// Failed reports the worker was killed by the fault hook.
	Failed bool
}

// shardQueue is the sharded path's hand-out: the non-empty shards not
// yet probed, most expensive first, consumed by whichever worker is
// idle — greedy LPT list scheduling. A killed worker puts its shard
// back, so idle workers wait while any shard is still in flight.
type shardQueue struct {
	run *streamRun
	src ShardedSource

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []int
	feeds    [ip6.AddrShards]TargetSource // each pending shard's cursor
	inflight int                          // handed out, not yet completed
	alive    int
	stopped  bool
}

// next blocks until a shard is available and returns it with its
// cursor; ok is false once every shard completed or the stream stopped.
func (q *shardQueue) next() (sh int, feed TargetSource, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.pending) == 0 && q.inflight > 0 && !q.stopped {
		q.cond.Wait()
	}
	if len(q.pending) == 0 || q.stopped {
		return 0, nil, false
	}
	sh = q.pending[0]
	q.pending = q.pending[1:]
	q.inflight++
	return sh, q.feeds[sh], true
}

// done marks a handed-out shard complete.
func (q *shardQueue) done() {
	q.mu.Lock()
	q.inflight--
	if q.inflight == 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// putBack is a killed worker's exit: its shard returns to the head of
// the queue (it has waited longest) with a fresh cursor. The last death
// fails the run — there is nobody left to finish the work.
func (q *shardQueue) putBack(sh int) {
	q.mu.Lock()
	q.inflight--
	q.alive--
	var err error
	switch feed := q.src.ShardSource(sh); {
	case q.alive == 0:
		err = fmt.Errorf("scan: all workers killed with %d shards unfinished", len(q.pending)+1)
	case feed == nil:
		// Shard sources are deterministic: a shard planned non-empty
		// cannot come back empty.
		err = fmt.Errorf("scan: shard %d source vanished on re-issue", sh)
	default:
		q.feeds[sh] = feed
		q.pending = append([]int{sh}, q.pending...)
		q.run.reissued++
		q.cond.Broadcast()
	}
	q.mu.Unlock()
	if err != nil {
		q.run.fail(err)
	}
}

// runSharded streams a pre-partitioned source: idle workers take whole
// shards off the cost-ordered queue, and each pulls its shard's
// sub-source directly into probing — no routing, no cross-shard
// buffering. Hand-out order and worker deaths only affect which worker
// probes which shard when — every shard's own batch sequence, and
// therefore every output, is identical.
func (r *streamRun) runSharded(src ShardedSource) {
	r.workers = make([]WorkerStats, r.s.cfg.Workers)
	q := &shardQueue{run: r, src: src, pending: make([]int, 0, ip6.AddrShards)}
	q.cond = sync.NewCond(&q.mu)
	// One serial pass collects every shard's cursor: lazily partitioned
	// sources build their plans on first use and are not race-safe.
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if q.feeds[sh] = src.ShardSource(sh); q.feeds[sh] != nil {
			q.pending = append(q.pending, sh)
		}
	}
	if len(q.pending) == 0 {
		return
	}
	sizes, _ := src.(ShardSizer)
	size := func(sh int) int {
		if sizes == nil {
			return -1
		}
		return sizes.ShardLen(sh)
	}
	workers := min(r.s.cfg.Workers, len(q.pending))
	q.alive = workers
	// Estimated cost: the profiled scan's wall nanos where it saw the
	// shard, target count otherwise, 1 as the floor. Estimates only steer
	// the order; a single worker gains nothing from one and keeps the
	// canonical order its consumers may rely on.
	if workers > 1 {
		prof := r.s.profile.Load()
		cost := func(sh int) int64 {
			if prof != nil && (*prof)[sh].Nanos > 0 {
				return (*prof)[sh].Nanos
			}
			return int64(max(size(sh), 1))
		}
		sort.SliceStable(q.pending, func(i, j int) bool { return cost(q.pending[i]) > cost(q.pending[j]) })
	}
	r.onStop = func() {
		q.mu.Lock()
		q.stopped = true
		q.cond.Broadcast()
		q.mu.Unlock()
	}

	hook := r.s.cfg.FaultHook
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []ip6.Addr // lazy pull buffer for non-span sources
			var sp shardProbe  // restarted for every shard this worker takes
			for {
				sh, feed, ok := q.next()
				if !ok {
					return
				}
				err := r.ctx.Err()
				if err == nil && hook != nil && hook(FaultPoint{Worker: w, Shard: sh, Batch: -1}) != nil {
					err = errKilled
				}
				// Only the worker holding a shard adds to its totals, so their
				// growth across the hold is this worker's own work.
				tot := &r.total.shards[sh]
				probes, nanos := tot.probes.Load(), tot.nanos.Load()
				if err == nil {
					sp = r.newShardProbe(sh, size(sh))
					sp.hold, sp.worker = hook != nil, w
					err = r.pullShard(&sp, feed, &buf)
				}
				switch err {
				case nil:
					ws := &r.workers[w]
					ws.Shards++
					ws.Probes += tot.probes.Load() - probes
					ws.Nanos += tot.nanos.Load() - nanos
					q.done()
				case errKilled:
					r.workers[w].Failed = true
					q.putBack(sh)
					return
				case errStreamStopped:
					return
				default:
					r.fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// pullShard probes one shard's whole target sequence by pulling its
// source to exhaustion.
func (r *streamRun) pullShard(sp *shardProbe, src TargetSource, buf *[]ip6.Addr) error {
	spanner, _ := src.(SpanSource)
	for {
		var seg []ip6.Addr
		var err error
		if spanner != nil {
			seg, err = spanner.Span(r.chunk)
		} else {
			if *buf == nil {
				*buf = make([]ip6.Addr, r.chunk)
			}
			var n int
			n, err = src.Next(*buf)
			seg = (*buf)[:n]
		}
		if len(seg) > 0 {
			if perr := sp.probe(seg); perr != nil {
				sp.release()
				return perr
			}
		} else if err == nil {
			sp.release()
			return fmt.Errorf("scan: shard %d source made no progress", sp.shard)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			sp.release()
			return err
		}
	}
	return sp.finish()
}

// routedShard is one shard's routing queue in the routed path.
type routedShard struct {
	pending   []ip6.Addr // routed, not yet probed (FIFO)
	spare     []ip6.Addr // recycled backing array for pending
	scheduled bool       // a token for this shard is in workCh / owned by a worker
	done      bool       // the source is exhausted; no more input will arrive
	finished  bool       // final flush has run
	sp        *shardProbe
}

// runRouted streams an unpartitioned source: the calling goroutine pulls
// chunks and routes each address to its canonical shard's queue, probe
// workers drain the queues (one worker per shard at a time, FIFO), and a
// window cap on routed-but-unprobed targets applies backpressure to the
// puller. Per-shard probe state persists across segments, so batch
// boundaries — and therefore every output — are exactly those of a
// single-pass stream.
func (r *streamRun) runRouted(src TargetSource) {
	workers := r.s.cfg.Workers
	if workers > ip6.AddrShards {
		workers = ip6.AddrShards
	}
	// The window bounds engine-held targets: large enough to keep every
	// worker busy between pulls, small enough that a huge source never
	// accumulates in memory.
	window := r.chunk * (workers + 2)

	shards := make([]routedShard, ip6.AddrShards)
	var (
		mu          sync.Mutex
		cond        = sync.NewCond(&mu)
		outstanding int
		stopped     bool
	)
	r.onStop = func() {
		mu.Lock()
		stopped = true
		cond.Broadcast()
		mu.Unlock()
	}

	// Buffered to AddrShards: the scheduled flag guarantees at most one
	// token per shard, so sends never block.
	workCh := make(chan int, ip6.AddrShards)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range workCh {
				rs := &shards[sh]
				for {
					mu.Lock()
					seg := rs.pending
					rs.pending = nil
					if len(seg) == 0 {
						final := rs.done && rs.sp != nil && !rs.finished
						if final {
							rs.finished = true
						} else {
							rs.scheduled = false
						}
						mu.Unlock()
						if final {
							if err := rs.sp.finish(); err != nil {
								r.fail(err)
								return
							}
						}
						break
					}
					if rs.sp == nil {
						sp := r.newShardProbe(sh, -1)
						rs.sp = &sp
					}
					sp := rs.sp
					mu.Unlock()

					err := sp.probe(seg)

					mu.Lock()
					if rs.spare == nil {
						rs.spare = seg[:0]
					}
					outstanding -= len(seg)
					cond.Broadcast()
					mu.Unlock()
					if err != nil {
						sp.release()
						if err != errStreamStopped {
							r.fail(err)
						}
						return
					}
				}
			}
		}()
	}

	buf := make([]ip6.Addr, r.chunk)
pull:
	for {
		select {
		case <-r.ctx.Done():
			r.fail(r.ctx.Err())
			break pull
		case <-r.stop:
			break pull
		default:
		}
		n, err := src.Next(buf)
		if n > 0 {
			mu.Lock()
			for outstanding+n > window && !stopped {
				cond.Wait()
			}
			if stopped {
				mu.Unlock()
				break pull
			}
			outstanding += n
			for _, a := range buf[:n] {
				sh := ip6.ShardOf(a)
				rs := &shards[sh]
				if rs.pending == nil && rs.spare != nil {
					rs.pending = rs.spare
					rs.spare = nil
				}
				rs.pending = append(rs.pending, a)
				if !rs.scheduled {
					rs.scheduled = true
					workCh <- sh
				}
			}
			mu.Unlock()
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			r.fail(err)
			break
		}
		if n == 0 {
			r.fail(fmt.Errorf("scan: source made no progress"))
			break
		}
	}

	// End of input: schedule the final flush of every shard with a live
	// partial batch or unprobed remainder — unless the stream already
	// failed, in which case workers are unwinding and partial batches are
	// dropped (the Sink contract: delivered batches stand, nothing else).
	aborted := false
	select {
	case <-r.stop:
		aborted = true
	default:
	}
	mu.Lock()
	for sh := range shards {
		rs := &shards[sh]
		rs.done = true
		if !aborted && (len(rs.pending) > 0 || rs.sp != nil) && !rs.scheduled {
			rs.scheduled = true
			workCh <- sh
		}
	}
	mu.Unlock()
	close(workCh)
	wg.Wait()

	// Release any probe buffers stranded by an abort.
	for sh := range shards {
		if sp := shards[sh].sp; sp != nil {
			sp.release()
		}
	}
}

// sinkQueue is the bounded delivery queue between probe workers and the
// sink (Config.SinkQueueDepth). A single delivery goroutine preserves the
// Sink contract: batches arrive FIFO, and a shard's batches are enqueued
// in Seq order by the one worker holding that shard, so same-shard calls
// stay sequential and ordered. On a sink error the queue keeps draining
// (returning buffers to the pool) so producers can never block forever on
// a full channel.
type sinkQueue struct {
	scanner *Scanner
	ch      chan *Batch
	done    chan struct{}
}

func newSinkQueue(s *Scanner, sink Sink, depth int, fail func(error)) *sinkQueue {
	q := &sinkQueue{scanner: s, ch: make(chan *Batch, depth), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		failed := false
		for b := range q.ch {
			if !failed {
				if err := sink(b); err != nil {
					fail(err)
					failed = true
				}
			}
			s.putBuf(b.Results)
			s.putArena(b.arena)
		}
	}()
	return q
}

// enqueue hands a filled batch to the delivery goroutine, blocking while
// the queue is full — that block is the backpressure. The batch's buffer
// is owned by the queue from here on.
func (q *sinkQueue) enqueue(b *Batch) { q.ch <- b }

// close signals end of stream and waits for the last delivery.
func (q *sinkQueue) close() {
	close(q.ch)
	<-q.done
}

// getBuf returns a pooled result buffer with at least the given
// capacity, empty.
func (s *Scanner) getBuf(need int) []Result {
	if buf, ok := s.bufPool.Get().([]Result); ok && cap(buf) >= need {
		return buf[:0]
	}
	return make([]Result, 0, need)
}

// putBuf clears a buffer and parks it in the pool. Clearing before
// pooling keeps parked buffers from pinning DNS payloads from the last
// batches until their slots are overwritten.
func (s *Scanner) putBuf(buf []Result) {
	buf = buf[:cap(buf)]
	clear(buf)
	s.bufPool.Put(buf[:0])
}

// getArena returns a pooled DNS wire arena for a stream probing UDP/53,
// nil otherwise — non-DNS streams never touch the arena machinery.
func (s *Scanner) getArena(protos []netmodel.Protocol) *netmodel.WireArena {
	if !slices.Contains(protos, netmodel.UDP53) {
		return nil
	}
	if a, ok := s.arenaPool.Get().(*netmodel.WireArena); ok {
		return a
	}
	return new(netmodel.WireArena)
}

// putArena resets an arena — its batch's results are fully consumed —
// and parks it; nil-safe.
func (s *Scanner) putArena(a *netmodel.WireArena) {
	if a != nil {
		a.Reset()
		s.arenaPool.Put(a)
	}
}

// ShardStats is one canonical shard's slice of a stream's throughput
// accounting — the raw signal for scheduler-style adaptive rate control.
type ShardStats struct {
	ProbesSent uint64
	Responses  uint64
	Successes  uint64
	Batches    uint64
	// Nanos is the cumulative wall-clock time probe workers spent inside
	// this shard. Unlike every other stream output it is nondeterministic
	// (it measures the machine, not the simulation), so consumers pinning
	// deterministic outputs must ignore it.
	Nanos int64
}

// streamTotals aggregates batch stats with atomics (batches finish on
// many workers at once), overall and per shard.
type streamTotals struct {
	probes, responses, successes, batches atomic.Uint64
	shards                                [ip6.AddrShards]shardTotals
}

type shardTotals struct {
	probes, responses, successes, batches atomic.Uint64
	nanos                                 atomic.Int64
}

func (t *streamTotals) add(shard int, b *Stats) {
	t.probes.Add(b.ProbesSent)
	t.responses.Add(b.Responses)
	t.successes.Add(b.Successes)
	t.batches.Add(1)
	sh := &t.shards[shard]
	sh.probes.Add(b.ProbesSent)
	sh.responses.Add(b.Responses)
	sh.successes.Add(b.Successes)
	sh.batches.Add(1)
}

func (t *streamTotals) addNanos(shard int, d time.Duration) {
	t.shards[shard].nanos.Add(int64(d))
}

func (t *streamTotals) stats(ratePPS int) Stats {
	st := Stats{
		ProbesSent: t.probes.Load(),
		Responses:  t.responses.Load(),
		Successes:  t.successes.Load(),
		Batches:    t.batches.Load(),
	}
	st.EstimatedSeconds = float64(st.ProbesSent) / float64(ratePPS)
	st.PerShard = make([]ShardStats, ip6.AddrShards)
	for i := range t.shards {
		sh := &t.shards[i]
		st.PerShard[i] = ShardStats{
			ProbesSent: sh.probes.Load(),
			Responses:  sh.responses.Load(),
			Successes:  sh.successes.Load(),
			Batches:    sh.batches.Load(),
			Nanos:      sh.nanos.Load(),
		}
	}
	return st
}
