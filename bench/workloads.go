package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hitlist6/internal/ckpt"
	"hitlist6/internal/core"
	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
	"hitlist6/internal/serve"
	"hitlist6/internal/sources"
	"hitlist6/internal/tga"
	"hitlist6/internal/worldgen"
	"hitlist6/internal/yarrp"
)

// spec is one workload: the knobs of the repetition every workload
// shares. A repetition is set-up (fresh world, fresh service), the scan
// loop with the workload's options on, and a tail that measures, once on
// the state the loop left, whatever the loop did not exercise — so each
// of the twelve end-to-end metrics is a real, non-zero measurement on
// every workload, and a layer the loop bypasses is still seen through a
// different use of it (a full checkpoint of resident sets, a from-scratch
// TGA round, a query block on the final hitlist).
type spec struct {
	name string
	why  string

	scaleDen float64 // world scale is 1/scaleDen
	stride   int     // every stride-th scheduled scan day
	scans    int     // cap on scans per repetition (0 = the whole schedule)

	fleet   int   // core.Config.FleetWorkers
	budget  int64 // core.Config.MemoryBudget
	durable bool  // journaled ingest and a harness checkpoint after every scan
	tga     bool  // the five-generator candidate feed closes the loop each scan
	live    bool  // ServeSnapshots on; a query block follows every scan
	static  int   // addresses in the served .hl6 file (serve-static only)

	dnsQueries  int // DNS queries per block
	httpQueries int // HTTP queries per block

	reference bool // records must equal a bare-engine run of the same days
}

// durableBudget is timeline-durable's MemoryBudget: small enough that
// every cumulative set spills.
const durableBudget = 2 << 20

// tailSamples is how many full checkpoints (each into a fresh directory)
// and from-scratch TGA rounds the tail runs on a workload whose loop had
// none, and how many times every workload resumes.
const tailSamples = 2

// specs are the six workloads. Sizes keep one repetition near three
// seconds on a two-core sandbox so a run of three fits the driver's cap.
var specs = []spec{
	{
		name: "timeline", why: "the paper's service loop with nothing optional on: probing, APD, digest and ingest do the work; the bypass workload for spill, ckpt, fleet, TGA and serve",
		scaleDen: 4000, stride: 1, dnsQueries: 500_000, httpQueries: 30_000,
	},
	{
		name: "timeline-fleet", why: "the same scans through the second dispatcher (FleetWorkers=2): the pair with timeline decides the one-dispatcher question",
		scaleDen: 4000, stride: 1, fleet: 2, dnsQueries: 500_000, httpQueries: 30_000, reference: true,
	},
	{
		name: "timeline-durable", why: "2 MiB memory budget, journaled ingest and a checkpoint after every scan: spill sets, ckpt, hlfile and the journal do most of the work",
		scaleDen: 4000, stride: 4, budget: durableBudget, durable: true, dnsQueries: 500_000, httpQueries: 30_000, reference: true,
	},
	{
		name: "tga-loop", why: "the Section 6 loop under real churn: seed-view refreeze, five incremental model updates, candidate probing and feedback ingest every scan",
		scaleDen: 2000, stride: 4, tga: true, dnsQueries: 500_000, httpQueries: 30_000,
	},
	{
		name: "serve-static", why: "read-only serving of a 2M-address .hl6 (32 MB index, lookups miss L2): the UDP read-decode-lookup-encode-write loop without the kernel",
		scaleDen: 4000, stride: 8, static: 2_000_000, dnsQueries: 1_500_000, httpQueries: 60_000,
	},
	{
		name: "serve-live", why: "reads beside writes: every scan publishes a snapshot and a block of queries over all eight datasets hits it cache-cold",
		scaleDen: 2000, stride: 3, live: true, dnsQueries: 16_000, httpQueries: 800,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// harness runs one workload's repetitions in this process.
type harness struct {
	sp      spec
	seed    uint64
	scratch string // parent of every repetition's scratch directory

	// Test-only faults: corruptDNS makes the in-memory conn's checker
	// expect the opposite answer; corruptRecords perturbs the record
	// hash of every second repetition.
	corruptDNS     bool
	corruptRecords bool

	tmpl     queryTemplates
	tr       *tracer // set while a traced repetition runs
	scanSpan int     // the running scan's span, parent of collect and pull spans
	probed   bool    // direct layer probes have run

	maxReps int         // cap on repetitions; 0 = the mode's default
	reps    []*repStats // finished repetitions

	ops      int
	failed   int
	failures []string
}

func newHarness(sp spec, seed uint64, scratch string) (*harness, error) {
	tmpl, err := newQueryTemplates(serve.NewDNSResponder(serve.NewHandle(), benchZone))
	if err != nil {
		return nil, err
	}
	return &harness{sp: sp, seed: seed, scratch: scratch, tmpl: tmpl, scanSpan: -1}, nil
}

// fail counts n failed operations and keeps the first few reasons.
func (h *harness) fail(n int, format string, a ...any) {
	if n <= 0 {
		return
	}
	h.failed += n
	if len(h.failures) < 8 {
		h.failures = append(h.failures, fmt.Sprintf(format, a...))
	}
}

// repStats is what one repetition measured.
type repStats struct {
	traced bool

	setupS   float64
	scanMS   []float64 // RunScan wall per scan
	ckptMS   []float64 // Service.Checkpoint wall per checkpoint
	loopCkpt bool      // checkpoints were part of the scan loop (count in timeline_s)
	ckptMB   []float64 // manifest payload bytes per checkpoint
	resumeS  []float64 // core.Resume wall per resume
	tgaMS    []float64 // per round: Candidates call → RunScan return
	dnsQ     int
	dnsWall  time.Duration
	dnsNS    []float64 // sampled per-query service times
	httpQ    int
	httpWall time.Duration
	httpQPS  []float64 // throughput per httpChunk queries

	hash   string // sha256 of the CSV rows zmap6sim -timeline prints, plus total probes
	probes uint64

	layer map[string]float64 // per-layer metrics of a traced repetition
}

func (st *repStats) timelineS() float64 {
	t := sum(st.scanMS)
	if st.loopCkpt {
		t += sum(st.ckptMS)
	}
	return t / 1e3
}

// measuredS is the repetition's timed work, what --seconds budgets.
func (st *repStats) measuredS() float64 {
	return (sum(st.scanMS)+sum(st.ckptMS)+sum(st.tgaMS))/1e3 + sum(st.resumeS) + st.dnsWall.Seconds() + st.httpWall.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// env is the state of one repetition.
type env struct {
	dir   string
	w     *worldgen.World
	feeds []*sources.Feed
	cfg   core.Config
	svc   *core.Service
	days  []int
	feed  *chainFeed // the service's TGA feed, when the workload has one

	// Serving state: the handle queries go to, the last block served,
	// and for serve-static the open .hl6 reader backing its snapshot.
	handle *serve.Handle
	block  *queryBlock
	reader *hlfile.Reader

	seeds   *ip6.SortedShardSet // the final ever-responsive set, frozen
	ckptDir string              // the last checkpoint written

	lastInput [][]ip6.Addr // traced: what each feed collected for the running scan
}

func (e *env) close() {
	if e.svc != nil {
		e.svc.Close()
	}
	if e.reader != nil {
		e.reader.Close()
	}
}

// config is the service configuration of the workload: zmap6sim
// -timeline's, plus the workload's options. Scratch stays under dir.
func (h *harness) config(dir string, feed *chainFeed) core.Config {
	cfg := core.DefaultConfig(h.seed)
	cfg.GFWFilterFromDay = netmodel.DayOf(2022, time.February, 7)
	cfg.FleetWorkers = h.sp.fleet
	cfg.MemoryBudget = h.sp.budget
	if h.sp.budget > 0 {
		cfg.SpillDir = filepath.Join(dir, "spill")
	}
	if h.sp.durable {
		cfg.CheckpointDir = filepath.Join(dir, "ckpt")
	}
	if h.sp.live {
		cfg.ServeSnapshots = true
		cfg.ServeEvery = 1
	}
	if feed != nil {
		cfg.TGAFeed = feed
	}
	return cfg
}

// setup builds the repetition's world, feeds and service (and for
// serve-static the served file); its wall time is setup_s.
func (h *harness) setup(dir string, parent int) (*env, error) {
	e := &env{dir: dir}
	id := h.tr.begin("worldgen.generate", "", parent)
	w, err := worldgen.Generate(worldgen.Params{Seed: h.seed, Scale: 1 / h.sp.scaleDen, TailASes: 240, ScanIntervalDays: 7})
	h.tr.end(id, 0)
	if err != nil {
		return nil, fmt.Errorf("generating world: %w", err)
	}
	e.w = w
	id = h.tr.begin("worldgen.buildfeeds", "", parent)
	e.feeds = w.BuildFeeds(yarrp.New(w.Net, yarrp.Config{Seed: h.seed}))
	h.tr.end(id, int64(len(e.feeds)))
	if h.tr != nil {
		e.feeds = h.wrapFeeds(e)
	}
	if h.sp.tga {
		e.feed = newChainFeed(h.tr, &h.scanSpan)
	}
	e.cfg = h.config(dir, e.feed)
	e.svc = core.NewService(e.cfg, w.Net, e.feeds, w.Blocklist)
	for i := 0; i < len(w.ScanDays); i += h.sp.stride {
		e.days = append(e.days, w.ScanDays[i])
	}
	if h.sp.scans > 0 && len(e.days) > h.sp.scans {
		e.days = e.days[:h.sp.scans]
	}
	if h.sp.live {
		e.handle = e.svc.QueryHandle()
	}
	if h.sp.static > 0 {
		if err := h.setupStatic(e, parent); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// setupStatic is hitlist6serve -hitlist's start-up: synthesize the
// addresses as `hitlist6 hl6 synth` draws them, write the .hl6 through
// the budgeted writer, open it, take its zero-copy sorted index and
// publish it once.
func (h *harness) setupStatic(e *env, parent int) error {
	path := filepath.Join(e.dir, "static.hl6")
	id := h.tr.begin("hlfile.write", "", parent)
	wr, err := hlfile.NewWriterBudget(path, hlfile.DefaultWriterBudget)
	if err != nil {
		return err
	}
	r := rng.NewStream(h.seed, "hl6-synth")
	for i := 0; i < h.sp.static; i++ {
		hi := 0x2001_0000_0000_0000 | r.Uint64()&0x0fff_ffff_0000 | r.Uint64()&0xffff
		lo := r.Uint64() >> (r.Uint64() % 48)
		if err := wr.Add(ip6.AddrFromUint64s(hi, lo)); err != nil {
			wr.Abort()
			return err
		}
	}
	if err := wr.Finish(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	h.tr.end(id, fi.Size())

	id = h.tr.begin("hlfile.open", "", parent)
	e.reader, err = hlfile.Open(path)
	h.tr.end(id, fi.Size())
	if err != nil {
		return err
	}
	id = h.tr.begin("hlfile.sortedset", "", parent)
	set, err := e.reader.SortedSet()
	h.tr.end(id, int64(set.Len()))
	if err != nil {
		return err
	}
	var perProto [netmodel.NumProtocols]*ip6.SortedShardSet
	e.handle = serve.NewHandle()
	e.handle.Publish(serve.NewSnapshot(0, set, perProto, nil, nil))
	return nil
}

// wrapFeeds returns copies of the feeds whose Collect is a span under
// the running scan and which keep the day's collected candidates for the
// layer probes. Only the traced run wraps; the untraced service sees the
// world's own feeds.
func (h *harness) wrapFeeds(e *env) []*sources.Feed {
	out := make([]*sources.Feed, len(e.feeds))
	for i, f := range e.feeds {
		cp := *f
		if collect := f.Collect; collect != nil {
			cp.Collect = func(ctx context.Context, day int) ([]ip6.Addr, error) {
				id := h.tr.begin("sources.collect", cp.Name, h.scanSpan)
				addrs, err := collect(ctx, day)
				h.tr.end(id, int64(len(addrs)))
				e.lastInput = append(e.lastInput, addrs)
				return addrs, err
			}
		}
		out[i] = &cp
	}
	return out
}

// csvRow is the row zmap6sim -timeline prints for one scan.
func csvRow(rec *core.ScanRecord) string {
	row := []string{
		netmodel.DateString(rec.Day),
		strconv.Itoa(rec.ScannedTargets), strconv.Itoa(rec.NewInput),
		strconv.Itoa(rec.TotalRaw), strconv.Itoa(rec.TotalClean), strconv.Itoa(rec.InjectedDNS),
		strconv.Itoa(rec.FirstResp), strconv.Itoa(rec.RespAgain), strconv.Itoa(rec.Unresp),
		strconv.Itoa(rec.AliasedPrefixes), strconv.Itoa(rec.Evicted),
	}
	for _, p := range netmodel.Protocols {
		row = append(row, strconv.Itoa(rec.ResponsiveRaw[p]), strconv.Itoa(rec.ResponsiveClean[p]))
	}
	return strings.Join(row, ",")
}

// recordsHash digests a run's records: every CSV row and the total
// probe count.
func recordsHash(recs []*core.ScanRecord) (string, uint64) {
	d := sha256.New()
	var probes uint64
	for _, rec := range recs {
		fmt.Fprintln(d, csvRow(rec))
		probes += rec.ProbesSent
	}
	fmt.Fprintln(d, probes)
	return hex.EncodeToString(d.Sum(nil)), probes
}

// reference runs the same days on the bare engine (no fleet, no budget,
// no durability) and returns its record hash: the in-process truth the
// fleet and durable workloads must reproduce. Untimed.
func (h *harness) reference() (string, error) {
	bare := *h
	bare.sp.fleet, bare.sp.budget, bare.sp.durable = 0, 0, false
	bare.tr = nil
	e, err := bare.setup(h.scratch, -1)
	if err != nil {
		return "", err
	}
	defer e.close()
	for _, day := range e.days {
		if _, err := e.svc.RunScan(context.Background(), day); err != nil {
			return "", fmt.Errorf("reference scan at day %d: %w", day, err)
		}
	}
	hash, _ := recordsHash(e.svc.Records())
	return hash, nil
}

// freezeSet freezes a flat set into the sorted sharded index the serving
// layer and the generators read.
func freezeSet(set ip6.Set) *ip6.SortedShardSet {
	sharded := ip6.NewShardedSet()
	for a := range set {
		sharded.Add(a)
	}
	return ip6.FreezeSorted(sharded)
}

// rep runs one repetition: set-up, scan loop, tail, resume, checks.
func (h *harness) rep(idx int, tr *tracer) (*repStats, error) {
	h.tr = tr
	if tr != nil {
		tr.rep = idx
	}
	st := &repStats{traced: tr != nil, loopCkpt: h.sp.durable}
	root := h.tr.begin("rep", h.sp.name, -1)
	defer func() { h.tr.end(root, int64(len(st.scanMS))) }()

	dir, err := os.MkdirTemp(h.scratch, "rep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	sid := h.tr.begin("setup", "", root)
	e, err := h.setup(dir, sid)
	h.tr.end(sid, 0)
	if err != nil {
		return nil, err
	}
	defer e.close()
	st.setupS = time.Since(t0).Seconds()

	var lt *layerTrace
	if tr != nil {
		lt = newLayerTrace()
	}
	qr := rng.NewStream(h.seed, "bench-queries")
	ctx := context.Background()

	for i, day := range e.days {
		e.lastInput = e.lastInput[:0]
		h.scanSpan = h.tr.begin("scan", "", root)
		lt.beforeAlloc()
		t := time.Now()
		rec, err := e.svc.RunScan(ctx, day)
		end := time.Now()
		h.ops++
		if err != nil {
			h.tr.end(h.scanSpan, 0)
			h.fail(1, "RunScan at day %d: %v", day, err)
			return nil, err
		}
		h.tr.end(h.scanSpan, int64(rec.ProbesSent))
		h.scanSpan = -1
		st.scanMS = append(st.scanMS, ms(end.Sub(t)))
		if rec.TGACandidates > 0 {
			st.tgaMS = append(st.tgaMS, ms(end.Sub(e.feed.roundStart)))
		}
		lt.afterScan(e, rec)

		if h.sp.durable {
			if err := h.checkpoint(e, st, lt, e.cfg.CheckpointDir, root); err != nil {
				return nil, err
			}
		}
		if h.sp.live {
			snap := e.handle.Current()
			if snap == nil {
				h.fail(1, "no snapshot published after scan %d", i)
				continue
			}
			e.block = newQueryBlock(qr, snap, h.tmpl, datasets, h.sp.dnsQueries)
			if err := h.serveBlock(e, st, root); err != nil {
				return nil, err
			}
		}
	}
	st.hash, st.probes = recordsHash(e.svc.Records())
	if h.corruptRecords && idx%2 == 1 {
		st.hash = "corrupt-" + st.hash
	}
	lastDay := e.days[len(e.days)-1]
	e.seeds = freezeSet(e.svc.EverResponsiveAny())

	// Tail: from-scratch TGA rounds on the final seeds, for a workload
	// whose loop ran none.
	if !h.sp.tga {
		for k := 0; k < tailSamples; k++ {
			if err := h.scratchRound(e, st, lastDay, root); err != nil {
				return nil, err
			}
		}
	}

	// Tail: full checkpoints of the final state, each into a fresh
	// directory, for a workload whose loop wrote none. Every workload
	// then resumes from its last checkpoint.
	e.ckptDir = e.cfg.CheckpointDir
	if !h.sp.durable {
		for k := 0; k < tailSamples; k++ {
			e.ckptDir = filepath.Join(dir, fmt.Sprintf("tail-ckpt-%d", k))
			if err := h.checkpoint(e, st, lt, e.ckptDir, root); err != nil {
				return nil, err
			}
		}
	}
	if err := h.resume(e, st, lt, root); err != nil {
		return nil, err
	}

	// Tail: one query block, for a workload that served nothing in its
	// loop. serve-static's is its main work, on the published file; the
	// others publish their final cumulative hitlist with every dataset.
	if !h.sp.live {
		mix := datasets
		if h.sp.static > 0 {
			mix = datasets[:1]
		} else {
			var perProto [netmodel.NumProtocols]*ip6.SortedShardSet
			for _, p := range netmodel.Protocols {
				perProto[p] = freezeSet(e.svc.EverResponsive(p))
			}
			e.handle = serve.NewHandle()
			e.handle.Publish(serve.NewSnapshot(lastDay, e.seeds, perProto,
				e.svc.AliasedPrefixes().Prefixes(), e.svc.Tracker().FreezeInjectedSeen()))
		}
		// At most 2^18 distinct queries are prepared; runDNS cycles them
		// up to the workload's count, which keeps a multi-million-query
		// block's wires out of the resident set it is measuring.
		e.block = newQueryBlock(qr, e.handle.Current(), h.tmpl, mix, min(h.sp.dnsQueries, 1<<18))
		// Preparing the block is the harness's garbage, not the server's:
		// collect it now, or its mark phase lands inside the timed block.
		runtime.GC()
		if err := h.serveBlock(e, st, root); err != nil {
			return nil, err
		}
	}

	if tr != nil {
		if !h.probed {
			h.probed = true
			h.probeLayers(e, lt, root)
		}
		lt.finish(e, st, tr.spans, idx)
		st.layer = lt.metrics
	}
	return st, nil
}

// serveBlock answers e.block through ServeUDP and then over HTTP,
// against e.handle's current snapshot.
func (h *harness) serveBlock(e *env, st *repStats, root int) error {
	id := h.tr.begin("serve.dns_block", "", root)
	dres, err := runDNS(serve.NewDNSResponder(e.handle, benchZone), e.block, h.sp.dnsQueries, h.corruptDNS)
	h.tr.end(id, int64(dres.queries))
	if err != nil {
		h.fail(1, "%v", err)
		return err
	}
	h.ops += dres.queries
	h.fail(dres.wrong, "DNS: %s", dres.detail)
	st.dnsQ += dres.queries
	st.dnsWall += dres.wall
	st.dnsNS = append(st.dnsNS, dres.samples...)

	id = h.tr.begin("serve.http_block", "", root)
	hres := runHTTP(serve.NewHTTPHandler(e.handle), e.block, h.sp.httpQueries)
	h.tr.end(id, int64(hres.queries))
	h.ops += hres.queries
	h.fail(hres.wrong, "HTTP: %s", hres.detail)
	st.httpQ += hres.queries
	st.httpWall += hres.wall
	st.httpQPS = append(st.httpQPS, hres.qps...)
	return nil
}

// checkpoint times one Service.Checkpoint into dir and reads the
// committed manifest back for its exact payload size.
func (h *harness) checkpoint(e *env, st *repStats, lt *layerTrace, dir string, root int) error {
	id := h.tr.begin("core.checkpoint", "", root)
	lt.beforeAlloc()
	t := time.Now()
	err := e.svc.Checkpoint(dir)
	d := time.Since(t)
	h.ops++
	if err != nil {
		h.tr.end(id, 0)
		h.fail(1, "Checkpoint: %v", err)
		return err
	}
	m, err := ckpt.ReadManifest(dir)
	if err != nil {
		h.tr.end(id, 0)
		h.fail(1, "reading committed manifest: %v", err)
		return err
	}
	var bytes int64
	for _, f := range m.Files {
		bytes += f.Bytes
	}
	h.tr.end(id, bytes)
	st.ckptMS = append(st.ckptMS, ms(d))
	st.ckptMB = append(st.ckptMB, float64(bytes)/1e6)
	lt.afterCheckpoint(m, ms(d))
	return nil
}

// resume times core.Resume from the last checkpoint, tailSamples times,
// and checks that each resumed service's records equal the live one's.
func (h *harness) resume(e *env, st *repStats, lt *layerTrace, root int) error {
	cfg := e.cfg
	if cfg.SpillDir != "" {
		cfg.SpillDir = filepath.Join(e.dir, "spill-resumed")
	}
	for k := 0; k < tailSamples; k++ {
		if e.feed != nil {
			cfg.TGAFeed = newChainFeed(nil, nil)
		}
		id := h.tr.begin("core.resume", "", root)
		lt.beforeAlloc()
		t := time.Now()
		resumed, err := core.Resume(e.ckptDir, cfg, e.w.Net, e.feeds, e.w.Blocklist)
		d := time.Since(t)
		h.tr.end(id, 0)
		h.ops++
		if err != nil {
			h.fail(1, "Resume: %v", err)
			return err
		}
		st.resumeS = append(st.resumeS, d.Seconds())
		lt.afterResume()
		got, _ := recordsHash(resumed.Records())
		resumed.Close()
		if got != st.hash && !h.corruptRecords {
			h.fail(1, "resumed service's records differ from the live one's")
		}
	}
	return nil
}

// scratchRound is the tail's TGA round: fresh generators build their
// models from scratch over the final seeds, and the candidates not yet
// seen as input are probed on all protocols — generate plus probe, the
// loop's round without the feedback ingest.
func (h *harness) scratchRound(e *env, st *repStats, day, root int) error {
	id := h.tr.begin("tga.scratch_round", "", root)
	t := time.Now()
	src := scan.Dedup(newChainFeed(nil, nil).Candidates(day, tga.NewSeedView(e.seeds)), e.svc.InputSeenHas)
	_, stats, err := e.svc.Scanner().StreamResponsiveFrom(context.Background(), src, e.cfg.Protocols, day)
	d := time.Since(t)
	h.tr.end(id, int64(stats.ProbesSent))
	h.ops++
	if err != nil {
		h.fail(1, "scratch TGA round: %v", err)
		return err
	}
	st.tgaMS = append(st.tgaMS, ms(d))
	return nil
}

// report is a finished run: what the last stdout line carries, plus the
// detail -out records.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Reps       int                `json:"reps"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Hash       string             `json:"records_sha256"`
	Probes     uint64             `json:"probes_total"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples"`
	Extra      map[string]float64 `json:"extra,omitempty"` // reported, never gated: scan_p90_ms
}

// run executes repetitions until seconds of measured work have
// accumulated (at least minReps, at most maxReps) and aggregates them.
// A traced run alternates untraced and traced repetitions so the
// tracing overhead is measured inside one process.
func (h *harness) run(seconds float64, trace bool, spansPath string) (*report, error) {
	minReps, maxReps := 3, 6
	var tr *tracer
	if trace {
		minReps, maxReps = 4, 8
		tr = newTracer()
	}
	if h.maxReps > 0 {
		minReps, maxReps = min(minReps, h.maxReps), h.maxReps
	}
	measured := 0.0
	for i := 0; i < maxReps && (i < minReps || measured < seconds); i++ {
		var rt *tracer
		if trace && i%2 == 1 {
			rt = tr
		}
		runtime.GC()
		st, err := h.rep(i, rt)
		h.tr = nil
		if err != nil {
			return h.report(trace), err
		}
		h.reps = append(h.reps, st)
		measured += st.measuredS()
	}

	for _, st := range h.reps[1:] {
		if st.hash != h.reps[0].hash {
			h.fail(1, "records of repetitions differ: %s vs %s", h.reps[0].hash[:12], st.hash[:12])
		}
	}
	if h.sp.reference {
		want, err := h.reference()
		if err != nil {
			h.fail(1, "reference run: %v", err)
		} else if want != h.reps[0].hash {
			h.fail(1, "records differ from the bare-engine reference run")
		}
	}
	if trace {
		if err := tr.write(spansPath); err != nil {
			return h.report(trace), fmt.Errorf("writing spans: %w", err)
		}
	}
	return h.report(trace), nil
}

// report aggregates the repetitions: a timing is the median repetition
// (percentiles pool every repetition's samples), so one noisy burst on a
// shared machine cannot move it. An untraced report carries the
// end-to-end metrics, a traced one the per-layer metrics.
func (h *harness) report(trace bool) *report {
	rp := &report{
		Workload: h.sp.name, Seed: h.seed, Trace: trace, GOMAXPROCS: runtime.GOMAXPROCS(0), Reps: len(h.reps),
		Metrics: map[string]float64{}, Samples: map[string]int{}, Extra: map[string]float64{},
	}
	var untraced, traced []*repStats
	for _, st := range h.reps {
		if st.traced {
			traced = append(traced, st)
		} else {
			untraced = append(untraced, st)
		}
	}
	if len(h.reps) > 0 {
		rp.Hash, rp.Probes = h.reps[0].hash, h.reps[0].probes
		if trace {
			perLayerMetrics(rp, untraced, traced)
		} else {
			h.endToEnd(rp, untraced)
		}
	}
	rp.Attempted, rp.Failed, rp.Failures = max(h.ops, 1), h.failed, h.failures
	rp.Correct = h.failed == 0 && len(h.reps) > 0
	return rp
}

// perLayerMetrics fills the per-layer table: each metric is the median
// over the traced repetitions that measured it, and the two harness
// health numbers compare traced with untraced repetitions.
func perLayerMetrics(rp *report, untraced, traced []*repStats) {
	layer := map[string][]float64{}
	var u, t []float64
	for _, st := range untraced {
		u = append(u, st.timelineS())
	}
	for _, st := range traced {
		t = append(t, st.timelineS())
		for k, v := range st.layer {
			layer[k] = append(layer[k], v)
		}
	}
	if len(t) > 0 && median(u) > 0 {
		// The fastest repetition of each kind is the least disturbed one.
		layer["bench.trace_overhead_pct"] = []float64{(quantile(t, 0)/quantile(u, 0) - 1) * 100}
		layer["bench.rep_spread_pct"] = []float64{(quantile(u, 1) - quantile(u, 0)) / median(u) * 100}
	}
	for _, def := range perLayer {
		rp.Metrics[def.name] = median(layer[def.name])
		rp.Samples[def.name] = len(layer[def.name])
	}
}

// endToEnd fills the twelve end-to-end metrics from untraced
// repetitions.
func (h *harness) endToEnd(rp *report, reps []*repStats) {
	var setup, timeline, resume, dnsQPS, httpQPS []float64
	var scan, late, ckptMS, ckptMB, tgaMS, dnsNS []float64
	for _, st := range reps {
		setup = append(setup, st.setupS)
		timeline = append(timeline, st.timelineS())
		resume = append(resume, st.resumeS...)
		dnsQPS = append(dnsQPS, float64(st.dnsQ)/st.dnsWall.Seconds())
		httpQPS = append(httpQPS, st.httpQPS...)
		scan = append(scan, st.scanMS...)
		late = append(late, st.scanMS[len(st.scanMS)-max(len(st.scanMS)/4, 1):]...)
		ckptMS = append(ckptMS, st.ckptMS...)
		ckptMB = append(ckptMB, st.ckptMB...)
		tgaMS = append(tgaMS, st.tgaMS...)
		dnsNS = append(dnsNS, st.dnsNS...)
	}
	rss, err := peakRSSMB()
	if err != nil {
		h.fail(1, "peak RSS: %v", err)
	}
	set := func(name string, v float64, n int) {
		rp.Metrics[name] = v
		rp.Samples[name] = n
	}
	set("setup_s", median(setup), len(setup))
	set("timeline_s", median(timeline), len(timeline))
	set("scan_p50_ms", median(scan), len(scan))
	set("scan_late_p50_ms", median(late), len(late))
	set("ckpt_p50_ms", median(ckptMS), len(ckptMS))
	set("ckpt_mb_per_scan", mean(ckptMB), len(ckptMB))
	set("resume_s", median(resume), len(resume))
	set("tga_round_p50_ms", median(tgaMS), len(tgaMS))
	set("dns_qps", median(dnsQPS), len(dnsQPS))
	set("dns_p50_ns", midMean(dnsNS), len(dnsNS))
	set("http_qps", median(httpQPS), len(httpQPS))
	set("peak_rss_mb", rss, 1)
	rp.Extra["scan_p90_ms"] = quantile(scan, 0.9)
	rp.Extra["dns_p99_ns"] = quantile(dnsNS, 0.99)
}
