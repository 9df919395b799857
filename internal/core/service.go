// Package core implements the IPv6 Hitlist service pipeline — the paper's
// Figure 1 — as an operable library:
//
//	input feeds → blocklist filter → GFW filter → aliased-prefix filter
//	→ 30-day-unresponsive filter → ZMap-style scans on five protocols
//
// The service accumulates candidate addresses from its feeds, schedules
// scans over simulated days, runs the multi-level aliased prefix detection,
// classifies Great-Firewall injections from response evidence, purges the
// cumulative GFW filter list the moment it is "deployed" (February 2022 in
// the paper; input dedup keeps the purged addresses out after it), and
// records per-scan series (responsiveness per protocol, published vs
// cleaned, churn) plus full snapshots at chosen days. Those
// records and snapshots are everything the evaluation figures and tables
// are derived from.
package core

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"hitlist6/internal/apd"
	"hitlist6/internal/gfw"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/scan"
	"hitlist6/internal/serve"
	"hitlist6/internal/sources"
	"hitlist6/internal/tga"
)

// Config parameterizes the service.
type Config struct {
	// Seed namespaces the service's internal randomness (APD slot draws
	// come from the scan day, so this mainly affects sampling).
	Seed uint64

	// Protocols probed each scan; defaults to all five.
	Protocols []netmodel.Protocol

	// UnresponsiveDays is the 30-day filter horizon.
	UnresponsiveDays int

	// GFWFilterFromDay is the deployment day of the GFW filter
	// (netmodel.Forever = never, reproducing the pre-2022 service).
	GFWFilterFromDay int

	// APDEveryScans runs alias detection every N-th scan (min 1).
	APDEveryScans int

	// APDMaxNewCandidates bounds how many newly seen /64s are tested per
	// APD round (the rest queue up).
	APDMaxNewCandidates int

	// RetainUnresponsive keeps the set of addresses evicted by the
	// 30-day filter (needed by the Section 6 re-scan experiment; costs
	// memory).
	RetainUnresponsive bool

	// SnapshotDays requests full responsive-set snapshots at the first
	// scan at or after each listed day.
	SnapshotDays []int

	// ScanWorkers overrides the scanner's probe concurrency (0 means
	// GOMAXPROCS). Scan records and snapshots are bit-identical for any
	// value — the engine shards deterministically by address hash.
	ScanWorkers int

	// ScanBatchSize overrides the streamed batch size (0 means the scan
	// package default). A throughput knob only; outputs do not depend on
	// it.
	ScanBatchSize int

	// FleetWorkers, when > 1, is the probe worker count of the main scan
	// (alias detection and TGA rounds keep ScanWorkers). Records,
	// snapshots, and digests are bit-identical for any value — a
	// deployment/wall-clock knob only.
	FleetWorkers int

	// FleetFaultHook injects worker deaths into the main scan (tests and
	// recovery drills): a killed worker's shard is redone by a survivor,
	// and the scan fails only when every worker died. It never fires on
	// alias detection or TGA rounds.
	FleetFaultHook scan.FaultHook

	// TGAFeed, when set, closes the paper's Section 6 loop inside the
	// pipeline: after each scan the feed streams candidate addresses
	// generated from the cumulative clean responsive set, the service
	// probes them through the streaming engine (deduplicated on the fly
	// against every address ever seen as input — no candidate list is
	// materialized), and the responders are ingested as next-scan input
	// under the feed's name. Nil reproduces the plain service.
	TGAFeed CandidateFeed

	// MemoryBudget, when > 0, bounds the resident size (in bytes) of the
	// cumulative sets that otherwise grow with the full measurement
	// history — every address ever seen as input and the per-protocol
	// and any-protocol ever-responsive sets.
	// The budget is split evenly across those sets and their shards;
	// each shard spills frozen sorted runs to disk past its slice and
	// merges them at digest finalization, so a run over hitlist-scale
	// input holds budget-bounded state instead of the whole history.
	// Outputs are bit-identical with and without a budget. 0 keeps
	// everything resident (the pre-spill behaviour). Scan-sized state
	// (the active window, per-scan responder sets, and — with TGAFeed —
	// the frozen per-shard seed spans the generators read and the
	// round's responder list) stays resident; the budget governs the
	// history-sized sets, including the TGA round's candidate-dedup set.
	MemoryBudget int64

	// SpillDir is where spill scratch files live when MemoryBudget is
	// set; "" creates (and removes at Close) a private temp directory.
	SpillDir string

	// ServeSnapshots publishes an immutable serve.Snapshot to the
	// service's QueryHandle at each digest finalization: frozen sorted
	// copies of the current clean responsive sets, the aliased-prefix
	// index and the GFW injection-evidence set, swapped in with one
	// atomic pointer store. Query traffic (internal/serve) keeps reading
	// the previous snapshot until the swap and never blocks the scan.
	ServeSnapshots bool

	// ServeEvery publishes only every Nth scan's snapshot (0 or 1 means
	// every scan). The first scan always publishes, so the handle serves
	// as soon as data exists.
	ServeEvery int

	// CheckpointDir, when set, is where Checkpoint writes
	// crash-consistent checkpoints of the full service state: after
	// every CheckpointEvery scans, or when called explicitly.
	// core.Resume restores from it. Must differ from SpillDir. Outputs
	// are bit-identical with and without it.
	CheckpointDir string

	// CheckpointEvery checkpoints after every Nth completed scan (0
	// disables automatic checkpoints; Checkpoint can still be called
	// explicitly). Ignored unless CheckpointDir is set.
	CheckpointEvery int

	// CheckpointFullEvery bounds the delta-checkpoint chain: successive
	// checkpoints into the same directory append what the scans since
	// the previous checkpoint added, and every Kth checkpoint is a full
	// rewrite (compaction) that collapses the chain. 0 means
	// the default (8); 1 disables deltas entirely. Restore cost and
	// crash-recovery surface grow with chain depth, write cost shrinks —
	// this is the dial between them.
	CheckpointFullEvery int
}

// CandidateFeed generates streaming scan candidates from the service's
// cumulative responsive seed set; tga.CandidateFeed adapts any streaming
// generator into one.
type CandidateFeed interface {
	// Name labels the feed in input accounting.
	Name() string
	// Candidates returns the candidate stream for one scan day given the
	// current responsive seeds as a sharded view: per-shard sorted frozen
	// spans that pointer-share unchanged shards across rounds, so
	// incremental generator models skip unchanged shards by identity
	// (tga.SameSpan), diff only the changed ones to grow by the new
	// seeds (tga.KeptSpans), and no caller ever materializes the
	// cumulative seed slice. The
	// service closes closable sources when the round ends.
	Candidates(day int, seeds *tga.SeedView) scan.TargetSource
}

// DefaultConfig mirrors the real service.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:                seed,
		Protocols:           []netmodel.Protocol{netmodel.ICMP, netmodel.TCP443, netmodel.TCP80, netmodel.UDP443, netmodel.UDP53},
		UnresponsiveDays:    30,
		GFWFilterFromDay:    netmodel.Forever,
		APDEveryScans:       1,
		APDMaxNewCandidates: 4096,
	}
}

// ScanRecord is the per-scan output row (the Figure 3/4 series).
type ScanRecord struct {
	Index int
	Day   int

	// NewInput is the count of never-before-seen candidate addresses.
	NewInput int
	// BlockedInput / AliasedInput count new input removed by the
	// respective filters. GFWFilteredInput counts the active rows the
	// GFW filter's deployment purged: it is non-zero only on the
	// deployment scan, since inputSeen keeps every purged address out of
	// later input.
	BlockedInput     int
	GFWFilteredInput int
	AliasedInput     int

	// ScannedTargets is the size of the scan set after all filters.
	ScannedTargets int

	// ResponsiveRaw is the published view: any response counts,
	// including GFW-injected DNS answers.
	ResponsiveRaw [netmodel.NumProtocols]int
	// ResponsiveClean removes responses classified as injected.
	ResponsiveClean [netmodel.NumProtocols]int
	// TotalRaw/TotalClean count addresses responsive to ≥1 protocol.
	TotalRaw   int
	TotalClean int

	// InjectedDNS counts results classified as GFW injections this scan.
	InjectedDNS int

	// Churn versus the previous scan (clean view): first-ever responders,
	// returning responders, and addresses that went unresponsive.
	FirstResp int
	RespAgain int
	Unresp    int

	// Evicted counts targets dropped by the 30-day filter this scan.
	Evicted int

	// AliasedPrefixes is the current aliased-prefix count.
	AliasedPrefixes int

	// ProbesSent counts scanner probes (scan + APD + TGA round).
	ProbesSent uint64

	// ShardStats is the main scan's per-shard engine throughput (probes,
	// responses, wall nanos per canonical shard) — the raw signal for
	// adaptive rate control. ShardStats.Nanos is wall-clock and therefore
	// nondeterministic; the whole block is excluded from golden
	// encodings, which predate it.
	ShardStats []scan.ShardStats `json:"-"`

	// TGACandidates / TGAResponsive count the streamed TGA candidate
	// round: candidates probed after input dedup, and distinct addresses
	// among them that answered at least one protocol. Zero, and left out
	// of the JSON encoding, unless Config.TGAFeed is set.
	TGACandidates int `json:",omitempty"`
	TGAResponsive int `json:",omitempty"`

	// TGARefrozenShards counts seed-view shards that gained responders
	// since the previous round's view: every shard in a service's first
	// round, 0 (and omitted) on steady-state rounds.
	TGARefrozenShards int `json:",omitempty"`

	// Phases is the scan's wall time per RunScan step: a measure of the
	// machine, not an output, so it is left out of every encoding.
	Phases Phases `json:"-"`
}

// Phases is one scan's wall time per RunScan step. The top-level phases
// follow each other and sum to the scan's wall time; Admit lies inside
// Ingest and TGA, and APDDraw, APDStream and APDRecord inside APD.
type Phases struct {
	Ingest    time.Duration // step 1: feeds drained, routed and admitted
	GFWDeploy time.Duration // step 2: the one-time GFW cleanup
	APD       time.Duration // step 3: candidate list, round and purge
	ScanSet   time.Duration // step 4: eviction
	Scan      time.Duration // step 5: the main scan
	Digest    time.Duration // step 6: digest finalize and serve publish
	Compact   time.Duration // step 6: cumulative-set compaction
	TGA       time.Duration // step 6b: the TGA round and its feedback
	Snapshot  time.Duration // step 7: snapshots and the spill check
	// Checkpoint is step 8, the auto-checkpoint when one is due.
	Checkpoint time.Duration

	// Admit is the admission sweeps' share of Ingest and TGA.
	Admit time.Duration
	// APDDraw, APDStream and APDRecord are the alias round's slot draw,
	// probe stream and history record (apd.Result).
	APDDraw, APDStream, APDRecord time.Duration
}

// lap returns the time since *t and moves *t to now: one phase boundary.
func lap(t *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}

// Snapshot is a full state capture at one scan. Its sets are views of
// that scan's clean responder columns, which are immutable, so taking a
// snapshot copies no address.
type Snapshot struct {
	Day           int
	Responsive    map[netmodel.Protocol]*ip6.SortedShardSet // clean view
	ResponsiveAny *ip6.SortedShardSet
	Aliased       []ip6.Prefix
}

// Service is the running pipeline.
type Service struct {
	cfg      Config
	net      *netmodel.Network
	scanner  *scan.Scanner
	detector *apd.Detector
	feeds    []*sources.Feed
	block    *ip6.PrefixSet

	// mainScanner runs the main scan: scanner's configuration plus the
	// FleetWorkers count and FleetFaultHook (scanner itself serves APD
	// and TGA probing). lastMain is its previous result — the shard
	// profile of the next scan's hand-out, and what LastFleet reports.
	mainScanner *scan.Scanner
	lastMain    scan.Stats

	scanIndex int

	// workers is the resolved sweep concurrency (ScanWorkers, or
	// GOMAXPROCS when unset): every per-shard pass over the target store
	// runs on up to this many goroutines. Outputs never depend on it.
	workers int

	// Cumulative input accounting. The history-sized sets (inputSeen,
	// everResp*, everRespAny) are ip6.SpillSets: resident columns by
	// default, disk-backed under Config.MemoryBudget.
	inputSeen    *ip6.SpillSet
	perASInput   map[int]*ASInput
	inputTotal   int
	blockedTotal int
	gfwTotal     int
	aliasedTotal int
	evictedTotal int
	gfwDeployed  bool
	unresponsive *ip6.SpillSet // evicted addresses (if retained), resident

	// spill is non-nil when MemoryBudget is set: the scratch directory
	// and the disk-backed sets to compact, error-check and close.
	spill *spillState

	// active is the target store: per-address scan-window state in one
	// sorted table per shard, partitioned exactly like the scan engine's
	// batch delivery, whose address columns are the scan set. Ingest,
	// eviction, alias purges, the GFW cleanup and digest finalization all
	// run as per-shard sweeps over it and merge their counters in
	// canonical shard order, so records stay bit-identical for any
	// worker count.
	active activeTable

	aliased      *ip6.PrefixSet
	pendingAPD64 []ip6.Prefix            // newly seen /64s queued for APD, in ingest sequence order
	pending64    map[ip6.Prefix]struct{} // pendingAPD64's members
	bgpCands     []bgpCandidate
	bgp64        map[ip6.Prefix]bool // the BGP-level /64 candidates: true once input queued one
	apdCands     []ip6.Prefix        // the round's candidate list, reused across rounds
	tracker      *gfw.Tracker
	everResp     [netmodel.NumProtocols]*ip6.SpillSet
	everRespAny  *ip6.SpillSet
	inputByFeed  map[string]int

	// prevRespAny and lastClean are the last scan's clean responders, on
	// any protocol and per protocol: scan-sized, resident, one ascending
	// column per shard. A column is never written again once built, so
	// published snapshots wrap it without a copy, and a shard whose
	// responders did not change keeps the very same slice.
	prevRespAny respColumns
	lastClean   [netmodel.NumProtocols]respColumns

	// digests are the main scan's per-shard accumulators, reset before
	// every scan; their position and address lists keep their capacity.
	digests []shardDigest
	// routeBuf is the reusable per-shard routing scratch of ingest.
	routeBuf [][]routedInput

	records   []*ScanRecord
	snapshots map[int]*Snapshot
	snapQueue []int

	// queryHandle is the serving layer's atomic snapshot slot; non-nil
	// from construction so servers can attach before the first scan
	// (they answer SERVFAIL until the first publish). serveScans counts
	// finalizations for the ServeEvery gate.
	queryHandle *serve.Handle
	serveScans  int

	// tgaView is the seed view of everRespAny the last TGA round handed
	// its generators: the set's folded columns wrapped without a copy, so
	// a shard with no new responder since is the very same span in the
	// next round's view.
	tgaView *tga.SeedView

	// ckptBase is the checkpoint the next delta appends to: the last one
	// this process committed (or resumed from). nil means no usable
	// parent: the next checkpoint is a full rewrite, and no set logs.
	ckptBase *ckptBase

	// halted is the error of a scan that failed after its digest began to
	// apply: state advanced with no record appended, so every later
	// RunScan and Checkpoint refuses (see RunScan).
	halted error
}

// routedInput is one ingest candidate routed to its shard: the address,
// the feed it came from, and its position in the deterministic
// (feed-name-sorted) input sequence of the scan, which fixes cross-shard
// ordering wherever it matters.
type routedInput struct {
	addr ip6.Addr
	feed int32
	seq  int32
}

// admitScratch is the scratch of one shard's admission: its candidate
// addresses, and the flags the dedup join reports for them. admitPool
// recycles it, so a sweep keeps one per worker alive, not one per shard.
type admitScratch struct {
	addrs []ip6.Addr
	fresh []bool
}

var admitPool = sync.Pool{New: func() any { return new(admitScratch) }}

// ASInput aggregates cumulative input per AS (Figure 2's ingredients).
type ASInput struct {
	Total   int
	Aliased int
	GFW     int
}

// spillState carries the external-memory context of a budgeted service:
// scratch directory, per-set/per-shard budget, and every disk-backed set
// for compaction, error checks and Close.
type spillState struct {
	dir         string
	ownsDir     bool
	shardBudget int
	sets        []*ip6.SpillSet
	initErr     error
}

// spillSets is how many history-sized sets share the memory budget: the
// per-protocol ever-responsive sets, the any-protocol one and the input
// dedup set.
const spillSets = netmodel.NumProtocols + 2

// newSet returns a fresh disk-backed set sharing the spill state's
// budget. A creation error is recorded for RunScan, Checkpoint and Resume
// to refuse on, and an empty resident set stands in, never written.
func (sp *spillState) newSet() *ip6.SpillSet {
	set, err := ip6.NewSpillSet(sp.dir, sp.shardBudget)
	if err != nil {
		if sp.initErr == nil {
			sp.initErr = err
		}
		return ip6.NewResidentSet()
	}
	sp.sets = append(sp.sets, set)
	return set
}

// err surfaces the first initialization or disk error across the sets.
func (sp *spillState) err() error {
	if sp.initErr != nil {
		return sp.initErr
	}
	for _, set := range sp.sets {
		if err := set.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (sp *spillState) close() error {
	var first error
	for _, set := range sp.sets {
		if err := set.Close(); err != nil && first == nil {
			first = err
		}
	}
	sp.sets = nil
	if sp.ownsDir {
		if err := os.RemoveAll(sp.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newSpillState resolves Config.MemoryBudget/SpillDir into a spill
// context, or nil when the service runs fully resident.
func newSpillState(cfg Config) *spillState {
	if cfg.MemoryBudget <= 0 {
		return nil
	}
	sp := &spillState{}
	// Even split: budget bytes over the sharing sets and their shards.
	// NewSpillSet clamps to ≥ 1 resident address per shard, so even a
	// pathological budget stays functional (it just spills constantly).
	sp.shardBudget = int(cfg.MemoryBudget / ip6.AddrBytes / spillSets / ip6.AddrShards)
	if cfg.SpillDir != "" {
		sp.dir = cfg.SpillDir
		if err := os.MkdirAll(sp.dir, 0o755); err != nil {
			sp.initErr = fmt.Errorf("core: creating spill dir: %w", err)
		}
	} else {
		dir, err := os.MkdirTemp("", "hitlist6-spill-*")
		if err != nil {
			sp.initErr = fmt.Errorf("core: creating spill dir: %w", err)
		}
		sp.dir, sp.ownsDir = dir, true
	}
	return sp
}

// NewService assembles a pipeline over a world. When Config.MemoryBudget
// is set the cumulative sets are disk-backed; call Close when done to
// release their scratch files (a resident service needs no Close).
func NewService(cfg Config, net *netmodel.Network, feeds []*sources.Feed, blocklist *ip6.PrefixSet) *Service {
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = []netmodel.Protocol{netmodel.ICMP, netmodel.TCP443, netmodel.TCP80, netmodel.UDP443, netmodel.UDP53}
	}
	if cfg.UnresponsiveDays <= 0 {
		cfg.UnresponsiveDays = 30
	}
	if cfg.APDEveryScans <= 0 {
		cfg.APDEveryScans = 1
	}
	if cfg.APDMaxNewCandidates <= 0 {
		cfg.APDMaxNewCandidates = 4096
	}
	if blocklist == nil {
		blocklist = ip6.NewPrefixSet()
	}
	// The blocklist is admission-read-only from here on; freeze it so
	// every ingest-time Contains runs on the flat index.
	blocklist.Freeze()
	scfg := scan.DefaultConfig(cfg.Seed)
	scfg.Workers = cfg.ScanWorkers
	scfg.BatchSize = cfg.ScanBatchSize
	workers := cfg.ScanWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		cfg:          cfg,
		net:          net,
		scanner:      scan.New(net, scfg),
		feeds:        feeds,
		block:        blocklist,
		workers:      workers,
		spill:        newSpillState(cfg),
		perASInput:   make(map[int]*ASInput),
		unresponsive: ip6.NewResidentSet(),
		active:       newActiveTable(),
		aliased:      ip6.NewPrefixSet(),
		pending64:    make(map[ip6.Prefix]struct{}),
		tracker:      gfw.NewTracker(),
		inputByFeed:  make(map[string]int),
		digests:      make([]shardDigest, ip6.AddrShards),
		routeBuf:     make([][]routedInput, ip6.AddrShards),
		snapshots:    make(map[int]*Snapshot),
		snapQueue:    append([]int(nil), cfg.SnapshotDays...),
		queryHandle:  serve.NewHandle(),
	}
	s.inputSeen = s.newCumulativeSet()
	s.everRespAny = s.newCumulativeSet()
	for i := range s.everResp {
		s.everResp[i] = s.newCumulativeSet()
	}
	s.detector = apd.NewDetector(s.scanner, apd.DefaultConfig())
	s.bgpCands = bgpCandidates(net.AS)
	s.bgp64 = make(map[ip6.Prefix]bool)
	for _, c := range s.bgpCands {
		if c.prefix.Bits() == 64 {
			s.bgp64[c.prefix] = false
		}
	}
	if cfg.FleetWorkers > 1 {
		scfg.Workers = cfg.FleetWorkers
	}
	scfg.FaultHook = cfg.FleetFaultHook
	s.mainScanner = scan.New(net, scfg)
	return s
}

// newCumulativeSet returns an empty history-sized set: disk-backed under
// a memory budget, resident otherwise.
func (s *Service) newCumulativeSet() *ip6.SpillSet {
	if s.spill != nil {
		return s.spill.newSet()
	}
	return ip6.NewResidentSet()
}

// compactSets compacts every cumulative set (ip6.SpillSet.Compact): a
// resident shard's outgrown Δ folds into its column, a spilled shard's
// runs merge into one, so membership probes stay one fence lookup per
// shard.
func (s *Service) compactSets() error {
	sets := append([]*ip6.SpillSet{s.inputSeen, s.everRespAny, s.unresponsive, s.tracker.EvidenceSet()}, s.everResp[:]...)
	for _, set := range sets {
		if err := set.Compact(); err != nil {
			return fmt.Errorf("core: compacting cumulative sets: %w", err)
		}
	}
	return nil
}

// Close releases the spill scratch files (and the private spill
// directory, when the service created one). Harmless on a resident
// service.
func (s *Service) Close() error {
	if s.spill == nil {
		return nil
	}
	return s.spill.close()
}

// SpilledRuns reports how many sorted runs the cumulative sets have
// frozen to disk so far — 0 on a resident service, and the "did the
// budget actually bite" signal for tests and operators.
func (s *Service) SpilledRuns() int64 {
	if s.spill == nil {
		return 0
	}
	var n int64
	for _, set := range s.spill.sets {
		n += set.FrozenRuns()
	}
	return n
}

// Scanner exposes the service's scanner (for auxiliary experiments that
// must share its configuration and vantage point).
func (s *Service) Scanner() *scan.Scanner { return s.scanner }

// AliasedPrefixes returns the current aliased prefix set.
func (s *Service) AliasedPrefixes() *ip6.PrefixSet { return s.aliased }

// LastFleet returns the most recent main scan's engine statistics,
// per-worker accounting included (zero value before the first scan).
func (s *Service) LastFleet() scan.Stats { return s.lastMain }

// Records returns all per-scan records so far.
func (s *Service) Records() []*ScanRecord { return s.records }

// Snapshots returns the requested snapshots, keyed by requested day.
func (s *Service) Snapshots() map[int]*Snapshot { return s.snapshots }

// Tracker exposes cumulative GFW evidence.
func (s *Service) Tracker() *gfw.Tracker { return s.tracker }

// InjectedOnly returns the cumulative GFW filter list: every address that
// ever drew an injected DNS answer and never a clean answer on any
// protocol (gfw.Tracker.InjectedOnly against the any-protocol
// ever-responsive set), as ascending per-shard columns. A read error of
// a spilled responsive shard is returned.
func (s *Service) InjectedOnly() (*ip6.SortedShardSet, error) {
	return s.tracker.InjectedOnly(s.everRespAny)
}

// QueryHandle returns the serving layer's snapshot handle. It is valid
// from construction — DNS/HTTP servers attach to it before the first
// scan and start answering from the first published snapshot (with
// Config.ServeSnapshots set, published inside RunScan's digest
// finalization). Lookups through it never block the timeline.
func (s *Service) QueryHandle() *serve.Handle { return s.queryHandle }

// UnresponsivePool returns the 30-day-evicted addresses (empty unless
// Config.RetainUnresponsive).
func (s *Service) UnresponsivePool() *ip6.SpillSet { return s.unresponsive }

// InputByFeed returns cumulative new-input counts per feed name.
func (s *Service) InputByFeed() map[string]int { return s.inputByFeed }

// InputSeen returns every address ever accumulated as input (the
// cumulative hitlist input, before filters), merged from its shards into
// a fresh flat map. The benchmark (bench/) is its only caller, and its
// move to views (ROADMAP item 2) deletes it; read InputSeenView instead.
func (s *Service) InputSeen() ip6.Set { return s.inputSeen.Merge() }

// InputSeenView returns every address ever accumulated as input, as the
// set's view (ip6.SpillSet.View): call it between scans.
func (s *Service) InputSeenView() (*ip6.SortedShardSet, error) { return s.inputSeen.View() }

// InputSeenHas reports whether a was ever accumulated as input, without
// materializing the merged set.
func (s *Service) InputSeenHas(a ip6.Addr) bool { return s.inputSeen.Has(a) }

// Network returns the world the service operates on.
func (s *Service) Network() *netmodel.Network { return s.net }

// PerASInput returns cumulative input accounting per ASN.
func (s *Service) PerASInput() map[int]*ASInput { return s.perASInput }

// EverResponsive returns the cumulative clean responsive set for a
// protocol, merged from its shards into a fresh flat map. The benchmark
// (bench/) is its only caller, and its move to views (ROADMAP item 2)
// deletes it; callers that need the cardinality use EverResponsiveLen.
func (s *Service) EverResponsive(p netmodel.Protocol) ip6.Set { return s.everResp[p].Merge() }

// EverResponsiveLen returns the size of the cumulative clean responsive
// set for a protocol without materializing a merged copy.
func (s *Service) EverResponsiveLen(p netmodel.Protocol) int { return s.everResp[p].Len() }

// EverResponsiveAny returns addresses ever responsive to ≥1 protocol,
// merged from its shards into a fresh flat map. The benchmark (bench/) is
// its only caller, and its move to views (ROADMAP item 2) deletes it;
// callers that need the cardinality use EverResponsiveAnyLen.
func (s *Service) EverResponsiveAny() ip6.Set { return s.everRespAny.Merge() }

// EverResponsiveAnyLen returns the size of the ever-responsive-any set
// without materializing a merged copy.
func (s *Service) EverResponsiveAnyLen() int { return s.everRespAny.Len() }

// Funnel summarizes the cumulative pipeline (Figure 1's numbers).
// GFWFiltered counts the active rows the GFW filter's deployment purged,
// not new input (see ScanRecord.GFWFilteredInput).
type Funnel struct {
	Input        int
	Blocked      int
	GFWFiltered  int
	AliasedInput int
	Evicted      int
	ActiveScan   int
	Responsive   int
}

// Funnel returns the cumulative funnel counts.
func (s *Service) Funnel() Funnel {
	resp := 0
	if len(s.records) > 0 {
		resp = s.records[len(s.records)-1].TotalClean
	}
	return Funnel{
		Input:        s.inputTotal,
		Blocked:      s.blockedTotal,
		GFWFiltered:  s.gfwTotal,
		AliasedInput: s.aliasedTotal,
		Evicted:      s.evictedTotal,
		ActiveScan:   s.active.len(),
		Responsive:   resp,
	}
}

// RunScan executes one full pipeline iteration at the given day.
//
// A scan that fails once its digest has begun to apply — a spill error,
// the TGA round (a failing feed, a cancelled ctx) — has advanced target
// liveness, the cumulative sets and the responder columns with no record
// appended, so a retry would diff its churn against the failed scan.
// Such an error halts the service: every later RunScan and Checkpoint
// returns it, wrapped, and writes nothing. Resume from the last
// checkpoint to go on.
func (s *Service) RunScan(ctx context.Context, day int) (*ScanRecord, error) {
	if s.halted != nil {
		return nil, fmt.Errorf("core: service halted by a half-applied scan: %w", s.halted)
	}
	if s.spill != nil {
		if err := s.spill.err(); err != nil {
			return nil, fmt.Errorf("core: spill state: %w", err)
		}
	}
	rec := &ScanRecord{Index: s.scanIndex, Day: day}
	clock := time.Now()

	// 1. Input accumulation: each active feed drains into a lazy
	// per-feed source and the admission sweep pulls them chunk-wise — no
	// global collected map is built.
	if err := s.ingest(sources.Open(ctx, s.feeds, day), day, rec); err != nil {
		return nil, fmt.Errorf("core: draining feeds: %w", err)
	}
	rec.Phases.Ingest = lap(&clock)

	// 2. GFW cumulative filter deployment (one-time event).
	if !s.gfwDeployed && day >= s.cfg.GFWFilterFromDay {
		if err := s.deployGFWFilter(rec); err != nil {
			return nil, fmt.Errorf("core: GFW filter deployment: %w", err)
		}
	}
	rec.Phases.GFWDeploy = lap(&clock)

	// 3. Aliased prefix detection (before the scan, as in the pipeline).
	if s.scanIndex%s.cfg.APDEveryScans == 0 {
		if err := s.runAPD(ctx, day, rec); err != nil {
			return nil, err
		}
	}
	// APD was the last mutation point for the aliased set this scan:
	// re-freeze it (and the blocklist, a no-op unless a caller touched
	// it) so the admission filters below and next scan's ingest run
	// Contains on the flat index instead of the map path.
	s.aliased.Freeze()
	s.block.Freeze()
	rec.AliasedPrefixes = s.aliased.Len()
	rec.Phases.APD = lap(&clock)

	// 4. 30-day filter: eviction runs as a per-shard sweep over the
	// target store, whose sorted address columns are then the scan set.
	rec.ScannedTargets = s.buildScanSet(day, rec)
	rec.Phases.ScanSet = lap(&clock)

	// 5+6. The scan, streamed: the store's per-shard address columns wrap
	// into a sharded TargetSource the engine's probe workers pull directly
	// (no concatenated global target slice), batches are classified and
	// folded into per-shard accumulators concurrently as they complete —
	// the full targets × protocols result slice is never materialized —
	// then the accumulators merge in canonical shard order.
	// The previous main scan's per-shard timing orders the hand-out
	// (slowest shards first, so stragglers overlap the cheap tail instead
	// of serializing after it). Purely a wall-clock input — per-shard
	// outputs do not depend on the order.
	digests := s.digests
	for sh := range digests {
		digests[sh].reset()
	}
	s.mainScanner.SetShardProfile(s.lastMain.PerShard)
	stats, err := s.mainScanner.StreamFrom(ctx, scan.ShardSlices(s.active.addrs), s.cfg.Protocols, day, s.digestSink(digests))
	if err != nil {
		return nil, fmt.Errorf("core: scanning: %w", err)
	}
	rec.ProbesSent += stats.ProbesSent
	rec.ShardStats = stats.PerShard
	s.lastMain = stats
	rec.Phases.Scan = lap(&clock)
	if err := s.applyScan(ctx, digests, day, rec, &clock); err != nil {
		s.halted = err
		return nil, err
	}
	s.records = append(s.records, rec)
	s.scanIndex++

	// 8. Durability: auto-checkpoint after every Nth completed scan. The
	// scan is fully finalized at this point, so a crash during the write
	// loses at most the scans since the previous checkpoint — never a
	// half-applied one.
	if s.cfg.CheckpointDir != "" && s.cfg.CheckpointEvery > 0 && s.scanIndex%s.cfg.CheckpointEvery == 0 {
		if err := s.Checkpoint(s.cfg.CheckpointDir); err != nil {
			return nil, fmt.Errorf("core: checkpoint: %w", err)
		}
	}
	rec.Phases.Checkpoint = lap(&clock)
	return rec, nil
}

// applyScan applies a completed scan to service state: the digest, the
// TGA round and the snapshots, lapping clock at each phase boundary. A
// failure leaves the service half-applied (see RunScan).
func (s *Service) applyScan(ctx context.Context, digests []shardDigest, day int, rec *ScanRecord, clock *time.Time) error {
	if err := s.finalizeDigest(digests, day, rec); err != nil {
		return err
	}
	rec.Phases.Digest = lap(clock) - rec.Phases.Compact

	// 6b. TGA candidate round: generate → probe → feed back, streamed
	// end to end.
	if s.cfg.TGAFeed != nil {
		if err := s.runTGA(ctx, day, rec); err != nil {
			return err
		}
	}
	rec.Phases.TGA = lap(clock)

	// 7. Snapshots.
	s.maybeSnapshot(day)

	// Any disk error the sweeps hit (spill writes degrade softly and
	// record a sticky error) fails the scan rather than silently running
	// with a lossy membership view.
	if s.spill != nil {
		if err := s.spill.err(); err != nil {
			return fmt.Errorf("core: spill state: %w", err)
		}
	}
	rec.Phases.Snapshot = lap(clock)
	return nil
}

// ingestCounters accumulates the outcome counters of an admission sweep;
// applyIngest folds them into the record and cumulative totals.
type ingestCounters struct {
	newInput, blocked, aliasedDrop int
	perAS                          map[int]*ASInput
}

// shardIngest accumulates one shard's slice of an ingest pass; counters
// merge into the record in canonical shard order.
type shardIngest struct {
	ingestCounters
	perFeed  []int
	admitted []routedInput // newly active, in seq order
}

// admitNew runs the rest of the admission chain — AS attribution,
// blocklist and aliased filters — for a candidate that inputSeen has
// just taken as new, recording outcomes in c, and reports whether it
// passed every filter; the caller inserts admitted candidates into the
// store. No GFW filter runs here: the deployed filter's list is
// tracker evidence, which only main-scan targets produce, and each of
// those went through inputSeen, so none of them is ever new again. Only
// counter state is written, so distinct shards may run it concurrently.
func (s *Service) admitNew(a ip6.Addr, c *ingestCounters) bool {
	c.newInput++

	asn := 0
	if as := s.net.AS.Lookup(a); as != nil {
		asn = as.ASN
	}
	ai := c.perAS[asn]
	if ai == nil {
		ai = &ASInput{}
		c.perAS[asn] = ai
	}
	ai.Total++

	// Blocklist filter.
	if s.block.Contains(a) {
		c.blocked++
		return false
	}
	// Aliased prefix filter.
	if s.aliased.Contains(a) {
		c.aliasedDrop++
		ai.Aliased++
		return false
	}
	return true
}

// applyIngest merges one admission sweep's counters into the record and
// the cumulative accounting.
func (s *Service) applyIngest(rec *ScanRecord, c *ingestCounters) {
	rec.NewInput += c.newInput
	s.inputTotal += c.newInput
	rec.BlockedInput += c.blocked
	s.blockedTotal += c.blocked
	rec.AliasedInput += c.aliasedDrop
	s.aliasedTotal += c.aliasedDrop
	for asn, d := range c.perAS {
		ai := s.perASInput[asn]
		if ai == nil {
			ai = &ASInput{}
			s.perASInput[asn] = ai
		}
		ai.Total += d.Total
		ai.Aliased += d.Aliased
	}
}

// ingestChunk is the pull granularity of the admission sweep over
// per-feed sources.
const ingestChunk = 512

// drainSource pulls src to exhaustion, handing each non-empty chunk to
// fn. buf backs pulls from sources without a span fast path.
func drainSource(src scan.TargetSource, buf []ip6.Addr, fn func([]ip6.Addr)) error {
	spanner, _ := src.(scan.SpanSource)
	for {
		var seg []ip6.Addr
		var err error
		if spanner != nil {
			seg, err = spanner.Span(len(buf))
		} else {
			var n int
			n, err = src.Next(buf)
			seg = buf[:n]
		}
		if len(seg) > 0 {
			fn(seg)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if len(seg) == 0 {
			return fmt.Errorf("core: input source made no progress")
		}
	}
}

// ingest dedups, filters and admits new input, pulling each feed's
// source chunk-wise in feed-name-sorted order, which numbers every
// candidate in one deterministic sequence. Candidates are routed to
// their canonical shards in one cheap pass, then admitRouted runs the
// lookup-heavy part per shard. Every source is pulled to exhaustion
// before anything is admitted, so a source error aborts the sweep with
// no state mutated: all-or-nothing for any worker count and every
// configuration, durable or budgeted included.
func (s *Service) ingest(srcs []sources.NamedSource, day int, rec *ScanRecord) error {
	sort.SliceStable(srcs, func(i, j int) bool { return srcs[i].Name < srcs[j].Name })

	// Route phase: partition the day's candidates by shard, preserving
	// the deterministic sequence order within each shard.
	seq := int32(0)
	buf := make([]ip6.Addr, ingestChunk)
	for fi, fs := range srcs {
		err := drainSource(fs.Src, buf, func(seg []ip6.Addr) {
			for _, a := range seg {
				if !a.IsGlobalUnicast() {
					continue
				}
				sh := ip6.ShardOf(a)
				s.routeBuf[sh] = append(s.routeBuf[sh], routedInput{addr: a, feed: int32(fi), seq: seq})
				seq++
			}
		})
		if err != nil {
			s.dropRouted()
			return err
		}
	}
	s.admitRouted(srcs, day, rec)
	return nil
}

// dropRouted empties routeBuf after a failed route phase, so the next
// sweep does not admit the leftovers.
func (s *Service) dropRouted() {
	for sh := range s.routeBuf {
		s.routeBuf[sh] = s.routeBuf[sh][:0]
	}
}

// admitRouted is the one admission sweep: it admits the candidates
// waiting in routeBuf (and empties it). Every shard runs the lookup-heavy
// part (dedup, AS attribution, blocklist and alias filters) and
// merges what it admitted into its store table independently on the
// worker pool — an address only ever touches its own shard, so the
// sweep is lock-free. The merge walks
// shards in canonical order, and anything order-sensitive (the APD /64
// queue, per-feed attribution of same-day duplicates) is resolved by the
// deterministic input sequence number, so results are bit-identical to a
// serial pass for any worker count. Called once per ingest: per-shard
// admission order equals sequence order, so every shard observes the
// candidate order a serial pass over the whole stream would deliver.
func (s *Service) admitRouted(srcs []sources.NamedSource, day int, rec *ScanRecord) {
	start := time.Now()
	defer func() { rec.Phases.Admit += time.Since(start) }()
	// Shared reads (blocklist, AS table, aliased prefixes) are
	// lookup-only here; all writes go to shard-owned state.
	results := make([]*shardIngest, ip6.AddrShards)
	ip6.ParallelShards(s.workers, func(sh int) {
		entries := s.routeBuf[sh]
		if len(entries) == 0 {
			return
		}
		r := &shardIngest{
			ingestCounters: ingestCounters{perAS: make(map[int]*ASInput)},
			perFeed:        make([]int, len(srcs)),
		}
		// Dedup is one batch of the shard's candidates against inputSeen
		// (AddBatchToShard); what it took as new goes on, in sequence
		// order.
		b := admitPool.Get().(*admitScratch)
		defer admitPool.Put(b)
		b.addrs = b.addrs[:0]
		for _, e := range entries {
			b.addrs = append(b.addrs, e.addr)
		}
		b.fresh = slices.Grow(b.fresh[:0], len(entries))[:len(entries)]
		s.inputSeen.AddBatchToShard(sh, b.addrs, b.fresh)
		for k, e := range entries {
			if !b.fresh[k] {
				continue
			}
			r.perFeed[e.feed]++
			if s.admitNew(e.addr, &r.ingestCounters) {
				r.admitted = append(r.admitted, e)
			}
		}
		// inputSeen let each address through once, so none of them is in
		// the table yet.
		if len(r.admitted) > 0 {
			add := make([]ip6.Addr, len(r.admitted))
			for i, e := range r.admitted {
				add[i] = e.addr
			}
			s.active.admit(sh, add, day)
		}
		results[sh] = r
	})

	// Merge phase, canonical shard order.
	var admitted []routedInput
	for sh := 0; sh < ip6.AddrShards; sh++ {
		s.routeBuf[sh] = s.routeBuf[sh][:0]
		r := results[sh]
		if r == nil {
			continue
		}
		s.applyIngest(rec, &r.ingestCounters)
		for fi, n := range r.perFeed {
			if n > 0 {
				s.inputByFeed[srcs[fi].Name] += n
			}
		}
		admitted = append(admitted, r.admitted...)
	}

	// Track newly admitted /64s for alias detection in input order, as a
	// serial pass would have: the APD candidate queue is order-sensitive
	// (its cap decides which /64s are tested this round vs queued).
	slices.SortFunc(admitted, func(a, b routedInput) int { return cmp.Compare(a.seq, b.seq) })
	for _, e := range admitted {
		s.trackSlash64(e.addr)
	}
}

// trackSlash64 queues a newly admitted address's /64 for alias detection
// the first time it is seen: when the detector has no history row for it
// and it is not queued. A /64 leaves the queue only for a round, which
// records its row, or when an aliased prefix covers it, and then
// admission keeps every address in it out for good. The BGP level
// records rows for its /64 candidates whatever the input, so for those
// bgp64 says whether input queued one.
func (s *Service) trackSlash64(a ip6.Addr) {
	p64 := ip6.Slash64(a)
	if s.detector.Has(p64) {
		if queued, bgp := s.bgp64[p64]; !bgp || queued {
			return
		}
	} else if _, queued := s.pending64[p64]; queued {
		return
	}
	if _, bgp := s.bgp64[p64]; bgp {
		s.bgp64[p64] = true
	}
	s.pendingAPD64 = append(s.pendingAPD64, p64)
	s.pending64[p64] = struct{}{}
}

// deployGFWFilter materializes the cumulative injected-only list and
// removes it from the active window — the paper's one-time cleanup of
// 134 M addresses in February 2022. The drop list (InjectedOnly) is
// built before anything changes, so a read error leaves the filter
// undeployed, and it lives only for this sweep: every address on it was
// a main-scan target, so inputSeen already keeps it out of later input.
// It arrives as ascending per-shard columns, so the purge is a per-shard
// sweep: each shard's table drops the rows its column holds in one
// in-place merge walk, and the per-AS counter deltas merge in canonical
// shard order.
func (s *Service) deployGFWFilter(rec *ScanRecord) error {
	drop, err := s.InjectedOnly()
	if err != nil {
		return err
	}
	s.gfwDeployed = true
	dropped := make([]shardPurge, ip6.AddrShards)
	ip6.ParallelShards(s.workers, func(sh int) {
		d := &dropped[sh]
		rest := drop.Shard(sh)
		if len(rest) == 0 {
			return
		}
		s.active.removeIf(sh, func(a ip6.Addr, _ targetState) bool {
			for len(rest) > 0 && rest[0].Less(a) {
				rest = rest[1:]
			}
			if len(rest) == 0 || rest[0] != a {
				return false
			}
			d.add(s.net, a)
			return true
		})
	})
	for sh := range dropped {
		d := &dropped[sh]
		rec.GFWFilteredInput += d.count
		s.gfwTotal += d.count
		for asn, n := range d.perAS {
			// Only ASes already holding input accounting are updated, as
			// in the pre-sharded cleanup.
			if ai := s.perASInput[asn]; ai != nil {
				ai.GFW += n
			}
		}
	}
	return nil
}

// shardPurge counts one shard's removals in a purge sweep, with per-AS
// attribution deltas to merge after the sweep.
type shardPurge struct {
	count int
	perAS map[int]int
}

// add counts one removed address under its AS.
func (d *shardPurge) add(net *netmodel.Network, a ip6.Addr) {
	asn := 0
	if as := net.AS.Lookup(a); as != nil {
		asn = as.ASN
	}
	if d.perAS == nil {
		d.perAS = make(map[int]int)
	}
	d.count++
	d.perAS[asn]++
}

// runAPD tests BGP prefixes plus the queued new /64s and applies the
// aliased filter to the active window.
func (s *Service) runAPD(ctx context.Context, day int, rec *ScanRecord) error {
	candidates := s.apdCands[:0]
	for _, c := range s.bgpCands {
		// Only prefixes already announced at this day.
		if c.from <= day {
			candidates = append(candidates, c.prefix)
		}
	}
	// Queued /64s already covered by a known shorter aliased prefix need
	// no testing; they would only re-discover the same region.
	pending := s.pendingAPD64[:0]
	taken := 0
	for _, p64 := range s.pendingAPD64 {
		if s.coveredByAliased(p64) {
			delete(s.pending64, p64)
			continue
		}
		if taken < s.cfg.APDMaxNewCandidates {
			candidates = append(candidates, p64)
			delete(s.pending64, p64)
			taken++
			continue
		}
		pending = append(pending, p64)
	}
	s.pendingAPD64 = pending
	s.apdCands = candidates

	res, err := s.detector.Run(ctx, candidates, day)
	if err != nil {
		return fmt.Errorf("core: alias detection: %w", err)
	}
	rec.ProbesSent += uint64(res.Probes)
	rec.Phases.APDDraw, rec.Phases.APDStream, rec.Phases.APDRecord = res.Draw, res.Stream, res.Record
	// Add shortest-first so a detected /32 subsumes /64s found in the
	// same round.
	detected := res.Aliased.Prefixes()
	sort.Slice(detected, func(i, j int) bool { return detected[i].Bits() < detected[j].Bits() })
	var fresh *ip6.PrefixSet
	for _, p := range detected {
		if !s.coveredByAliased(p) {
			s.aliased.Add(p)
			if fresh == nil {
				fresh = ip6.NewPrefixSet()
			}
			fresh.Add(p)
		}
	}

	// Newly aliased prefixes purge matching active targets. Targets are
	// only matched against this round's fresh prefixes: admission filters
	// against the aliased set at ingest time and every earlier round
	// purged its own detections, so no active target can be covered by an
	// older prefix — rounds that detect nothing new skip the sweep
	// entirely, and rounds that do only pay lookups against the small
	// fresh set.
	if fresh == nil {
		return nil
	}
	purged := make([]shardPurge, ip6.AddrShards)
	ip6.ParallelShards(s.workers, func(sh int) {
		d := &purged[sh]
		s.active.removeIf(sh, func(a ip6.Addr, _ targetState) bool {
			if !fresh.Contains(a) {
				return false
			}
			d.add(s.net, a)
			return true
		})
	})
	for sh := range purged {
		d := &purged[sh]
		rec.AliasedInput += d.count
		s.aliasedTotal += d.count
		for asn, n := range d.perAS {
			ai := s.perASInput[asn]
			if ai == nil {
				ai = &ASInput{}
				s.perASInput[asn] = ai
			}
			ai.Aliased += n
		}
	}
	return nil
}

// bgpCandidate is one BGP-level APD candidate and the day its
// announcement enters the routing table.
type bgpCandidate struct {
	prefix ip6.Prefix
	from   int
}

// bgpCandidates lists every subdividable announced prefix with its first
// announcement day, sorted by prefix — the BGP level of each round's
// candidate list, derived once instead of per round (the table does not
// change under a running service). WalkPrefixes visits in map order; the
// sort makes the slot queue's fill order the same in every process.
func bgpCandidates(table *netmodel.ASTable) []bgpCandidate {
	var out []bgpCandidate
	table.WalkPrefixes(func(p ip6.Prefix, as *netmodel.AS) bool {
		if p.Bits()+4 > 128 {
			return true
		}
		from, found := 0, false
		for i, ap := range as.Announced {
			if ap == p && (!found || as.AnnouncedFrom[i] < from) {
				from, found = as.AnnouncedFrom[i], true
			}
		}
		if found {
			out = append(out, bgpCandidate{prefix: p, from: from})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return ip6.ComparePrefix(out[i].prefix, out[j].prefix) < 0 })
	return out
}

// coveredByAliased reports whether a shorter (or equal) aliased prefix
// already covers p.
func (s *Service) coveredByAliased(p ip6.Prefix) bool {
	m, ok := s.aliased.Match(p.Addr())
	return ok && m.Bits() <= p.Bits()
}

// buildScanSet applies the 30-day filter, returning the scan set's total
// target count. Every shard evicts its stale rows in one in-place pass on
// the worker pool; what is left of its address column, still ascending,
// is the shard's scan set, which the scanner consumes directly. The
// ascending order keeps the engine's batch sequences deterministic, and
// it is what lets the digest name a target by its position. Retained
// evictions leave in ascending order too, and merge into the pool as one
// list per shard.
func (s *Service) buildScanSet(day int, rec *ScanRecord) int {
	var evicted [ip6.AddrShards]int
	ip6.ParallelShards(s.workers, func(sh int) {
		var gone []ip6.Addr
		s.active.removeIf(sh, func(a ip6.Addr, st targetState) bool {
			ref := st.lastSuccessDay
			if ref < 0 {
				ref = st.firstDay
			}
			if day-ref <= s.cfg.UnresponsiveDays {
				return false
			}
			evicted[sh]++
			if s.cfg.RetainUnresponsive {
				gone = append(gone, a)
			}
			return true
		})
		s.unresponsive.AddSortedToShard(sh, gone)
	})
	total := 0
	for sh, n := range evicted {
		total += len(s.active.addrs[sh])
		rec.Evicted += n
		s.evictedTotal += n
	}
	return total
}

// shardDigest accumulates one shard's slice of a scan. Each instance is
// only ever touched by the worker currently holding its shard (the scan
// engine serializes same-shard batches), so no locking is needed; the
// merge into the ScanRecord walks shards in canonical order, which makes
// records and snapshots bit-identical for any worker count or batch size.
type shardDigest struct {
	raw [netmodel.NumProtocols]int
	// rawAt and cleanAt are the scan-set positions — rows of the shard's
	// active table — of the targets with at least one success, and with
	// at least one clean success; cleanBy[p] holds the rows with a clean
	// success on protocol p. All ascending.
	rawAt, cleanAt []int
	cleanBy        [netmodel.NumProtocols][]int
	injectedDNS    []ip6.Addr // targets with an injected answer, ascending

	// Churn counters, filled in by finalizeDigest.
	firstResp, respAgain, unresp int
}

// reset empties d for the next scan, keeping its lists' capacity.
func (d *shardDigest) reset() {
	keep := shardDigest{rawAt: d.rawAt[:0], cleanAt: d.cleanAt[:0], injectedDNS: d.injectedDNS[:0]}
	for p, rows := range d.cleanBy {
		keep.cleanBy[p] = rows[:0]
	}
	*d = keep
}

// digestSink returns the scan.Sink that classifies and folds the main
// scan's batches into per-shard accumulators. The scan streams the active
// table's address columns, so a result's position in its shard's probe
// sequence (Batch.Offset) names the table row it belongs to; a success
// whose target is not that row's address fails the scan. The sink runs on
// the engine's worker goroutines and touches only its shard's digest (an
// address lives in exactly one shard); service state stays untouched
// until finalizeDigest, so an errored or cancelled scan mutates nothing.
func (s *Service) digestSink(digests []shardDigest) scan.Sink {
	nprotos := len(s.cfg.Protocols)
	return func(b *scan.Batch) error {
		d := &digests[b.Shard]
		targets := s.active.addrs[b.Shard]
		row, proto := b.Offset()/nprotos, b.Offset()%nprotos
		for i := range b.Results {
			r, at := &b.Results[i], row
			if proto++; proto == nprotos {
				row, proto = row+1, 0
			}
			if !r.Success {
				continue
			}
			if at >= len(targets) || targets[at] != r.Target {
				return fmt.Errorf("core: result for %v does not match shard %d's scan-set row %d", r.Target, b.Shard, at)
			}
			// Classify exactly once; the evidence below feeds the GFW
			// tracker at finalize time. A target's results are adjacent and
			// rows arrive in order, so a row is new to a list exactly when
			// it is not the last one recorded, and every list stays
			// ascending.
			injected := r.Proto == netmodel.UDP53 && gfw.ClassifyMessages(r.DNS).Injected()
			d.raw[r.Proto]++
			if n := len(d.rawAt); n == 0 || d.rawAt[n-1] != at {
				d.rawAt = append(d.rawAt, at)
			}
			if injected {
				d.injectedDNS = append(d.injectedDNS, r.Target)
				continue
			}
			if rows := d.cleanBy[r.Proto]; len(rows) == 0 || rows[len(rows)-1] != at {
				d.cleanBy[r.Proto] = append(rows, at)
			}
			if n := len(d.cleanAt); n == 0 || d.cleanAt[n-1] != at {
				d.cleanAt = append(d.cleanAt, at)
			}
		}
		return nil
	}
}

// respColumns is a per-scan responder set: one ascending address column
// per shard.
type respColumns [ip6.AddrShards][]ip6.Addr

// column returns the addresses at rows of targets: cur itself when they
// are exactly cur, or else a fresh slice, never cur's array — a column
// is immutable once built. changed reports which.
func column(cur, targets []ip6.Addr, rows []int) (col []ip6.Addr, changed bool) {
	same := len(cur) == len(rows)
	for i := 0; same && i < len(rows); i++ {
		same = targets[rows[i]] == cur[i]
	}
	if same {
		return cur, false
	}
	col = make([]ip6.Addr, len(rows))
	for i, r := range rows {
		col[i] = targets[r]
	}
	return col, true
}

// finalizeDigest applies the per-shard accumulators to service state —
// target liveness, GFW evidence, this scan's responder columns, the
// cumulative responsive sets, churn — as a per-shard sweep on the worker
// pool (shards are independent, and with the sharded target store the
// liveness writes are shard-local too: no cross-shard locking anywhere),
// then merges the counters into the record in canonical shard order. It
// only runs for a completed scan, so a scan aborted before it leaves
// the service exactly as it was; once it runs, an error halts the
// service (see RunScan). Changed responder columns and the tracker's
// evidence list arrive ascending and merge into the cumulative sets
// whole, and the sets are compacted before the serving snapshot is
// published.
func (s *Service) finalizeDigest(digests []shardDigest, day int, rec *ScanRecord) error {
	// A shard with no batches still matters: its previously responsive
	// addresses all churned to unresponsive. Its digest's empty lists are
	// safe to read.
	ip6.ParallelShards(s.workers, func(sh int) {
		d := &digests[sh]
		// Target liveness: before the filter deployment, injected
		// success keeps the target alive (that is the published
		// behaviour), so any response counts; after deployment only
		// clean responses do. The digest holds table rows, and the table
		// has not changed since the scan read it. Addresses of one shard
		// never appear in another, so the writes are race-free.
		bump := d.cleanAt
		if !s.gfwDeployed {
			bump = d.rawAt
		}
		state := s.active.state[sh]
		for _, at := range bump {
			state[at].lastSuccessDay = day
		}

		// An unchanged column was added to its cumulative set when it was
		// built, so only a changed one is added again.
		targets := s.active.addrs[sh]
		for _, p := range s.cfg.Protocols {
			col, changed := column(s.lastClean[p][sh], targets, d.cleanBy[p])
			if changed {
				s.everResp[p].AddSortedToShard(sh, col)
				s.lastClean[p][sh] = col
			}
		}
		s.tracker.AddEvidenceShard(sh, d.injectedDNS)

		col, changed := column(s.prevRespAny[sh], targets, d.cleanAt)
		if changed {
			joined := churn(d, s.prevRespAny[sh], col)
			// Every address of the last column is in everRespAny already,
			// so the ones this column adds to it are exactly the joined
			// ones that respond for the first time ever.
			first := s.everRespAny.AddSortedToShard(sh, col)
			d.firstResp += first
			d.respAgain += joined - first
			s.prevRespAny[sh] = col
		}
	})

	for sh := 0; sh < ip6.AddrShards; sh++ {
		d := &digests[sh]
		for p := 0; p < netmodel.NumProtocols; p++ {
			rec.ResponsiveRaw[p] += d.raw[p]
			rec.ResponsiveClean[p] += len(d.cleanBy[p])
		}
		// Shards partition the address space, so disjoint-set lengths sum
		// to the union's cardinality; a target has one result per
		// protocol, so a per-protocol list's length is its result count.
		rec.TotalRaw += len(d.rawAt)
		rec.TotalClean += len(d.cleanAt)
		rec.InjectedDNS += len(d.injectedDNS)
		rec.FirstResp += d.firstResp
		rec.RespAgain += d.respAgain
		rec.Unresp += d.unresp
	}
	start := time.Now()
	if err := s.compactSets(); err != nil {
		return err
	}
	rec.Phases.Compact = time.Since(start)
	s.publishServeSnapshot(day)
	return nil
}

// churn counts into d the addresses of last scan's column prev that cur
// lacks (stopped responding), in one merge walk of the two, and returns
// how many of cur's addresses prev lacks: each responds for the first
// time ever or again, which finalizeDigest tells apart.
func churn(d *shardDigest, prev, cur []ip6.Addr) (joined int) {
	i, j := 0, 0
	for i < len(prev) || j < len(cur) {
		switch {
		case j == len(cur) || (i < len(prev) && prev[i].Less(cur[j])):
			d.unresp++
			i++
		case i == len(prev) || cur[j].Less(prev[i]):
			joined++
			j++
		default:
			i++
			j++
		}
	}
	return joined
}

// sameSlice reports whether a and b are the same slice: equal lengths
// over the same array, or both empty.
func sameSlice(a, b []ip6.Addr) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// publishServeSnapshot builds and publishes the serving layer's immutable
// snapshot for this scan: the clean responder columns (any-protocol and
// per-protocol) wrapped as sorted sets without a copy, a frozen clone of
// the aliased-prefix index, and the frozen GFW injection-evidence set.
// None of it is live state — the columns are never written again, and
// the timeline mutates on without ever touching a published snapshot —
// and the publish itself is one atomic pointer swap on the QueryHandle,
// so concurrent readers see either the whole previous snapshot or the
// whole new one, never a mix.
//
// Publication is incremental: hitlists are highly stable between
// consecutive scans, so most shards publish the very slice the previous
// generation did. A responder shard is shared when its column is the
// previous snapshot's slice, and refrozen (rebuilt) otherwise. The
// injection-evidence set is the tracker's folded columns, wrapped the
// same way, so it is counted the same way. After a restore the previous
// generation is gone and the first publish counts every shard refrozen.
func (s *Service) publishServeSnapshot(day int) {
	if !s.cfg.ServeSnapshots {
		return
	}
	s.serveScans++
	// The first scan always publishes; afterwards every ServeEvery-th.
	if every := s.cfg.ServeEvery; every > 1 && s.serveScans != 1 && (s.serveScans-1)%every != 0 {
		return
	}
	start := time.Now()
	prev := s.queryHandle.Current()
	refrozen, shared := 0, 0
	count := func(cur, prevSet *ip6.SortedShardSet) *ip6.SortedShardSet {
		for sh := 0; sh < ip6.AddrShards; sh++ {
			if prevSet != nil && sameSlice(cur.Shard(sh), prevSet.Shard(sh)) {
				shared++
			} else {
				refrozen++
			}
		}
		return cur
	}
	var perProto [netmodel.NumProtocols]*ip6.SortedShardSet
	var prevAny, prevInj *ip6.SortedShardSet
	if prev != nil {
		prevAny, prevInj = prev.Any, prev.Injected
	}
	for _, p := range s.cfg.Protocols {
		var prevP *ip6.SortedShardSet
		if prev != nil {
			prevP = prev.PerProto[p]
		}
		perProto[p] = count(ip6.SortedFromShards(s.lastClean[p]), prevP)
	}
	any := count(ip6.SortedFromShards(s.prevRespAny), prevAny)
	inj := count(s.tracker.FreezeInjectedSeen(), prevInj)
	s.queryHandle.Publish(serve.NewSnapshot(day, any, perProto, s.aliased.Prefixes(), inj))
	s.queryHandle.NotePublish(refrozen, shared, time.Since(start))
}

// compactingSeen wraps a round-local spill set as a scan.AddSet that
// compacts itself every compactEvery inserts (compact errors are sticky
// on the set and surface from the round's Err check).
type compactingSeen struct {
	set *ip6.SpillSet
	n   int
}

// compactEvery balances merge cost against probe fan-in: a few hundred
// thousand inserts accrue at most a handful of runs per shard under any
// sane budget.
const compactEvery = 1 << 18

func (c *compactingSeen) Add(a ip6.Addr) bool {
	ok := c.set.Add(a)
	if c.n++; c.n%compactEvery == 0 {
		c.set.Compact()
	}
	return ok
}

// countSource interposes on a target stream to count pulled addresses.
type countSource struct {
	src scan.TargetSource
	n   int
}

func (c *countSource) Next(buf []ip6.Addr) (int, error) {
	n, err := c.src.Next(buf)
	c.n += n
	return n, err
}

func (c *countSource) Close() error {
	if cl, ok := c.src.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// runTGA runs one streamed generate → probe → feed back round: the
// configured feed emits candidates derived from the cumulative clean
// responsive set (including this scan's responders), the engine pulls
// and probes them with streaming dedup against every address ever seen
// as input, and distinct responders are ingested as input under the
// feed's name — so they join the active window and the next scan's
// target set. No candidate list is ever materialized; only the (much
// smaller) responder list is.
func (s *Service) runTGA(ctx context.Context, day int, rec *ScanRecord) error {
	seeds, refrozen, err := s.tgaSeedView()
	if err != nil {
		return fmt.Errorf("core: TGA seed view: %w", err)
	}
	rec.TGARefrozenShards = refrozen
	if seeds.Len() == 0 {
		return nil
	}
	// Candidate dedup tracks this round's emissions; under a memory
	// budget that tracking set spills too, so a hitlist-scale candidate
	// stream never accumulates in RAM. The cross-round filter is the
	// (possibly disk-backed) cumulative inputSeen either way.
	var seen scan.AddSet = ip6.NewSet(0)
	var roundSpill *ip6.SpillSet
	if s.spill != nil {
		set, err := ip6.NewSpillSet(s.spill.dir, s.spill.shardBudget)
		if err != nil {
			return fmt.Errorf("core: TGA dedup spill set: %w", err)
		}
		defer set.Close()
		roundSpill = set
		// Periodic compaction keeps the round set's per-shard run fan-in
		// near 1 — without it a long candidate stream would probe every
		// frozen run per Add. Safe: the dedup filter runs on the single
		// puller goroutine, so no per-shard sweep is ever active here.
		seen = &compactingSeen{set: set}
	}
	counted := &countSource{src: scan.DedupWith(s.cfg.TGAFeed.Candidates(day, seeds), s.inputSeen.Has, seen)}
	var resp tgaResponders
	stats, err := s.scanner.StreamFrom(ctx, counted, s.cfg.Protocols, day, resp.sink)
	if err != nil {
		return fmt.Errorf("core: TGA candidate scan: %w", err)
	}
	// A disk error in the round's dedup set degrades Has to false
	// (candidates probed twice) — fail the scan like every other spill
	// error instead of letting outputs silently diverge from the
	// budget-less run.
	if roundSpill != nil {
		if err := roundSpill.Err(); err != nil {
			return fmt.Errorf("core: TGA dedup spill set: %w", err)
		}
	}
	rec.ProbesSent += stats.ProbesSent
	rec.TGACandidates = counted.n

	// Feedback is ingested in global address order, which seq numbers
	// and the APD candidate queue depend on.
	fed := resp.sorted()
	rec.TGAResponsive = len(fed)
	if len(fed) == 0 {
		return nil
	}
	return s.ingest([]sources.NamedSource{{Name: s.cfg.TGAFeed.Name(), Src: scan.SliceSource(fed)}}, day, rec)
}

// tgaResponders is a TGA round's responders: per shard, every candidate
// with a success on some protocol, once, in probe order.
type tgaResponders [ip6.AddrShards][]ip6.Addr

// sink is the round's scan.Sink. A target's results are adjacent in its
// shard's sequence (across a batch boundary too, since a shard's batches
// arrive in order) and the round's Dedup makes candidates distinct, so a
// target is new exactly when it is not the shard's last responder. It
// touches only the batch's shard, so concurrent shards need no lock.
func (t *tgaResponders) sink(b *scan.Batch) error {
	l := t[b.Shard]
	for i := range b.Results {
		if r := &b.Results[i]; r.Success && (len(l) == 0 || l[len(l)-1] != r.Target) {
			l = append(l, r.Target)
		}
	}
	t[b.Shard] = l
	return nil
}

// sorted returns every responder, ascending.
func (t *tgaResponders) sorted() []ip6.Addr {
	all := slices.Concat(t[:]...)
	ip6.SortAddrs(all)
	return all
}

// tgaSeedView returns the generators' seed view over everRespAny: its
// folded columns wrapped without a copy (a spilled shard is read back
// from its runs). A shard with no new responder since the last round is
// the very slice the previous view held, so steady-state rounds reuse
// every span for free and the cumulative seed slice is never
// materialized. It returns the view plus the number of shards refrozen:
// those that gained responders since the previous view — the set only
// grows, so a shard changed exactly when its length did, resident or
// spilled — or every shard when there is none.
func (s *Service) tgaSeedView() (*tga.SeedView, int, error) {
	seeds, err := s.everRespAny.View()
	if err != nil {
		return nil, 0, err
	}
	refrozen := 0
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if s.tgaView == nil || len(seeds.Shard(sh)) != len(s.tgaView.Shard(sh)) {
			refrozen++
		}
	}
	s.tgaView = tga.NewSeedView(seeds)
	return s.tgaView, refrozen, nil
}

// maybeSnapshot captures due snapshots. Snapshots read only the
// scan-sized resident state (prevRespAny, lastClean, aliased), so no
// spill interaction happens here.
func (s *Service) maybeSnapshot(day int) {
	for len(s.snapQueue) > 0 && day >= s.snapQueue[0] {
		want := s.snapQueue[0]
		s.snapQueue = s.snapQueue[1:]
		snap := &Snapshot{
			Day:           day,
			Responsive:    make(map[netmodel.Protocol]*ip6.SortedShardSet, len(s.cfg.Protocols)),
			ResponsiveAny: ip6.SortedFromShards(s.prevRespAny),
			Aliased:       s.aliased.Prefixes(),
		}
		for _, p := range s.cfg.Protocols {
			snap.Responsive[p] = ip6.SortedFromShards(s.lastClean[p])
		}
		s.snapshots[want] = snap
	}
}
