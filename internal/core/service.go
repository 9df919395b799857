// Package core implements the IPv6 Hitlist service pipeline — the paper's
// Figure 1 — as an operable library:
//
//	input feeds → blocklist filter → GFW filter → aliased-prefix filter
//	→ 30-day-unresponsive filter → ZMap-style scans on five protocols
//
// The service accumulates candidate addresses from its feeds, schedules
// scans over simulated days, runs the multi-level aliased prefix detection,
// classifies Great-Firewall injections from response evidence, applies the
// cumulative GFW input filter the moment it is "deployed" (February 2022 in
// the paper), and records per-scan series (responsiveness per protocol,
// published vs cleaned, churn) plus full snapshots at chosen days. Those
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
	// history — every address ever seen as input, the per-protocol and
	// any-protocol ever-responsive sets, and the deployed GFW drop list.
	// The budget is split evenly across those sets and their shards;
	// each shard spills frozen sorted runs to disk past its slice and
	// merges them at digest finalization, so a run over hitlist-scale
	// input holds budget-bounded state instead of the whole history.
	// Outputs are bit-identical with and without a budget. 0 keeps
	// everything resident (the pre-spill behaviour). Scan-sized state
	// (the active window, per-scan responder sets, and — with TGAFeed —
	// the frozen per-shard seed spans the generators read) stays
	// resident; the budget governs the history-sized sets, including the
	// TGA round's candidate-dedup set and responder union.
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

	// CheckpointDir, when set, makes the service durable: RunScan spools
	// each scan's candidate stream through an on-disk rollback journal
	// next to this directory (bounded chunks instead of a resident
	// collected list, same all-or-nothing abort contract), and — with
	// CheckpointEvery — writes crash-consistent checkpoints of the full
	// service state here via Checkpoint. core.Resume restores from it.
	// Must differ from SpillDir. Outputs are bit-identical with and
	// without it.
	CheckpointDir string

	// CheckpointEvery checkpoints after every Nth completed scan (0
	// disables automatic checkpoints; Checkpoint can still be called
	// explicitly). Ignored unless CheckpointDir is set.
	CheckpointEvery int

	// CheckpointFullEvery bounds the delta-checkpoint chain: successive
	// checkpoints into the same directory write only dirty shards'
	// payloads against the previous checkpoint, and every Kth checkpoint
	// is a full rewrite (compaction) that collapses the chain. 0 means
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

// targetState tracks one address in the active scan window.
type targetState struct {
	firstDay       int
	lastSuccessDay int // -1 until first success
}

// ScanRecord is the per-scan output row (the Figure 3/4 series).
type ScanRecord struct {
	Index int
	Day   int

	// NewInput is the count of never-before-seen candidate addresses.
	NewInput int
	// BlockedInput / GFWFilteredInput / AliasedInput count new input
	// removed by the respective filters.
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
	// among them that answered at least one protocol. Zero unless
	// Config.TGAFeed is set; excluded from goldens, which predate the
	// loop.
	TGACandidates int `json:"-"`
	TGAResponsive int `json:"-"`

	// TGARefrozenShards counts seed-view shards the round's epoch-delta
	// freeze had to re-freeze (dirtied since the previous round); 0 on
	// steady-state rounds. Excluded from goldens like the other TGA
	// counters.
	TGARefrozenShards int `json:"-"`
}

// Snapshot is a full state capture at one scan.
type Snapshot struct {
	Day           int
	Responsive    map[netmodel.Protocol]ip6.Set // clean view
	ResponsiveAny ip6.Set
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
	// gfwInputDrop, everResp*, everRespAny) are used through
	// ip6.SpillableSet: resident ShardedSets by default, disk-backed
	// SpillSets under Config.MemoryBudget.
	inputSeen    ip6.SpillableSet
	perASInput   map[int]*ASInput
	inputTotal   int
	blockedTotal int
	gfwTotal     int
	aliasedTotal int
	evictedTotal int
	gfwDeployed  bool
	gfwInputDrop ip6.SpillableSet // the cumulative "134 M" filter once deployed
	unresponsive *ip6.ShardedSet  // evicted addresses (if retained)

	// spill is non-nil when MemoryBudget is set: the scratch directory
	// and the disk-backed sets to compact, error-check and close.
	spill *spillState

	// active is the sharded target store: per-address scan-window state,
	// partitioned exactly like the scan engine's batch delivery. Ingest,
	// eviction, alias purges, the GFW cleanup and digest finalization all
	// run as per-shard sweeps over it and merge their counters in
	// canonical shard order, so records stay bit-identical for any
	// worker count.
	active *ip6.ShardedMap[*targetState]

	aliased      *ip6.PrefixSet
	pendingAPD64 []ip6.Prefix // newly seen /64s queued for APD
	bgpCands     []bgpCandidate
	apdCands     []ip6.Prefix // the round's candidate list, reused across rounds
	seen64       map[ip6.Prefix]struct{}
	seen64Order  []ip6.Prefix // seen64 in first-seen (ingest sequence) order, written unsorted
	tracker      *gfw.Tracker
	everResp     [netmodel.NumProtocols]ip6.SpillableSet
	everRespAny  ip6.SpillableSet
	prevRespAny  *ip6.ShardedSet // last scan's clean responders: scan-sized, stays resident
	lastClean    map[netmodel.Protocol]*ip6.ShardedSet
	inputByFeed  map[string]int

	// scanShards holds the per-shard scan-set buffers, rebuilt by the
	// 30-day filter each scan and fed straight into StreamFrom; the
	// backing arrays are reused across scans, so steady-state scans
	// allocate no scan-set memory at all.
	scanShards [][]ip6.Addr
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

	// tgaFrozen is the frozen sorted form of everRespAny runTGA hands its
	// generators (wrapped as tgaView); each round's epoch-delta freeze
	// re-freezes only dirtied shards and pointer-shares the rest, so
	// steady-state rounds (no new responders) reuse every span for free
	// and the cumulative seed slice is never materialized.
	tgaFrozen *ip6.SortedShardSet
	tgaView   *tga.SeedView

	// Delta-checkpoint state: identity of the last checkpoint this
	// process committed into ckptDir (or resumed from its head), the
	// chain depth there, and per-payload shard-epoch marks — what the
	// next Checkpoint diffs the cumulative sets against. ckptMarks nil
	// means no usable parent: the next checkpoint is a full rewrite.
	ckptMarks map[string]*ckptMark
	ckptDir   string
	ckptDepth int
	ckptScan  int

	// Per-shard staging buffers for checkpoint payloads, kept across
	// checkpoints: address-set shards and active.bin shards.
	ckptShards ip6.ShardPipeline[[]ip6.Addr]
	ckptActive ip6.ShardPipeline[[]activeRec]
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
// per-protocol ever-responsive sets, the any-protocol one, the input
// dedup set and the GFW drop list.
const spillSets = netmodel.NumProtocols + 3

// newSet returns a fresh disk-backed set sharing the spill state's
// budget, recording (and re-reporting) the first creation error.
func (sp *spillState) newSet() *ip6.SpillSet {
	set, err := ip6.NewSpillSet(sp.dir, sp.shardBudget)
	if err != nil {
		if sp.initErr == nil {
			sp.initErr = err
		}
		return nil
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

// compact folds every set's runs down (one run per shard) — the merge
// step of digest finalization and snapshot capture.
func (sp *spillState) compact() error {
	for _, set := range sp.sets {
		if err := set.Compact(); err != nil {
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
		unresponsive: ip6.NewShardedSet(),
		active:       ip6.NewShardedMap[*targetState](),
		aliased:      ip6.NewPrefixSet(),
		seen64:       make(map[ip6.Prefix]struct{}),
		tracker:      gfw.NewTracker(),
		prevRespAny:  ip6.NewShardedSet(),
		inputByFeed:  make(map[string]int),
		scanShards:   make([][]ip6.Addr, ip6.AddrShards),
		routeBuf:     make([][]routedInput, ip6.AddrShards),
		snapshots:    make(map[int]*Snapshot),
		snapQueue:    append([]int(nil), cfg.SnapshotDays...),
		queryHandle:  serve.NewHandle(),
	}
	s.inputSeen = s.newCumulativeSet()
	// gfwInputDrop is only read once the filter deploys, and deployment
	// replaces it wholesale — an empty resident placeholder until then
	// (the budget split still reserves its post-deployment share).
	s.gfwInputDrop = ip6.NewShardedSet()
	s.everRespAny = s.newCumulativeSet()
	for i := range s.everResp {
		s.everResp[i] = s.newCumulativeSet()
	}
	s.detector = apd.NewDetector(s.scanner, apd.DefaultConfig())
	s.bgpCands = bgpCandidates(net.AS)
	if cfg.FleetWorkers > 1 {
		scfg.Workers = cfg.FleetWorkers
	}
	scfg.FaultHook = cfg.FleetFaultHook
	s.mainScanner = scan.New(net, scfg)
	return s
}

// newCumulativeSet picks the resident or disk-backed implementation for
// one history-sized set.
func (s *Service) newCumulativeSet() ip6.SpillableSet {
	if s.spill != nil {
		if set := s.spill.newSet(); set != nil {
			return set
		}
		// Creation failed; fall back resident so the service object stays
		// usable — RunScan surfaces spill.initErr before any scan runs.
	}
	return ip6.NewShardedSet()
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

// QueryHandle returns the serving layer's snapshot handle. It is valid
// from construction — DNS/HTTP servers attach to it before the first
// scan and start answering from the first published snapshot (with
// Config.ServeSnapshots set, published inside RunScan's digest
// finalization). Lookups through it never block the timeline.
func (s *Service) QueryHandle() *serve.Handle { return s.queryHandle }

// UnresponsivePool returns the 30-day-evicted addresses (empty unless
// Config.RetainUnresponsive).
func (s *Service) UnresponsivePool() *ip6.ShardedSet { return s.unresponsive }

// InputByFeed returns cumulative new-input counts per feed name.
func (s *Service) InputByFeed() map[string]int { return s.inputByFeed }

// InputSeen returns every address ever accumulated as input (the
// cumulative hitlist input, before filters), merged from its shards into
// a fresh flat set. Callers that only need membership should use
// InputSeenHas and skip the copy.
func (s *Service) InputSeen() ip6.Set { return s.inputSeen.Merge() }

// InputSeenHas reports whether a was ever accumulated as input, without
// materializing the merged set.
func (s *Service) InputSeenHas(a ip6.Addr) bool { return s.inputSeen.Has(a) }

// Network returns the world the service operates on.
func (s *Service) Network() *netmodel.Network { return s.net }

// PerASInput returns cumulative input accounting per ASN.
func (s *Service) PerASInput() map[int]*ASInput { return s.perASInput }

// EverResponsive returns the cumulative clean responsive set for a
// protocol, merged from its shards into a fresh flat set. Callers that
// only need the cardinality should use EverResponsiveLen.
func (s *Service) EverResponsive(p netmodel.Protocol) ip6.Set { return s.everResp[p].Merge() }

// EverResponsiveLen returns the size of the cumulative clean responsive
// set for a protocol without materializing a merged copy.
func (s *Service) EverResponsiveLen(p netmodel.Protocol) int { return s.everResp[p].Len() }

// EverResponsiveAny returns addresses ever responsive to ≥1 protocol,
// merged from its shards into a fresh flat set. Callers that only need
// the cardinality should use EverResponsiveAnyLen.
func (s *Service) EverResponsiveAny() ip6.Set { return s.everRespAny.Merge() }

// EverResponsiveAnyLen returns the size of the ever-responsive-any set
// without materializing a merged copy.
func (s *Service) EverResponsiveAnyLen() int { return s.everRespAny.Len() }

// Funnel summarizes the cumulative pipeline (Figure 1's numbers).
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
		ActiveScan:   s.active.Len(),
		Responsive:   resp,
	}
}

// RunScan executes one full pipeline iteration at the given day.
func (s *Service) RunScan(ctx context.Context, day int) (*ScanRecord, error) {
	if s.spill != nil {
		if err := s.spill.err(); err != nil {
			return nil, fmt.Errorf("core: spill state: %w", err)
		}
	}
	rec := &ScanRecord{Index: s.scanIndex, Day: day}

	// 1. Input accumulation: each active feed drains into a lazy
	// per-feed source and the admission sweep pulls them chunk-wise — no
	// global collected map is built.
	if err := s.ingest(sources.Open(ctx, s.feeds, day), day, rec); err != nil {
		return nil, fmt.Errorf("core: draining feeds: %w", err)
	}

	// 2. GFW cumulative filter deployment (one-time event).
	if !s.gfwDeployed && day >= s.cfg.GFWFilterFromDay {
		s.deployGFWFilter(rec)
	}

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

	// 4. 30-day filter: eviction runs as a per-shard sweep over the
	// target store, refilling the reusable per-shard scan-set buffers.
	rec.ScannedTargets = s.buildScanSet(day, rec)

	// 5+6. The scan, streamed: the per-shard scan sets wrap into a
	// sharded TargetSource the engine's probe workers pull directly (no
	// concatenated global target slice), batches are classified and
	// folded into per-shard accumulators concurrently as they complete —
	// the full targets × protocols result slice is never materialized —
	// then the accumulators merge in canonical shard order.
	// The previous main scan's per-shard timing orders the hand-out
	// (slowest shards first, so stragglers overlap the cheap tail instead
	// of serializing after it). Purely a wall-clock input — per-shard
	// outputs do not depend on the order.
	digests := make([]*shardDigest, ip6.AddrShards)
	s.mainScanner.SetShardProfile(s.lastMain.PerShard)
	stats, err := s.mainScanner.StreamFrom(ctx, scan.ShardSlices(s.scanShards), s.cfg.Protocols, day, s.digestSink(digests))
	if err != nil {
		return nil, fmt.Errorf("core: scanning: %w", err)
	}
	rec.ProbesSent += stats.ProbesSent
	rec.ShardStats = stats.PerShard
	s.lastMain = stats
	s.finalizeDigest(digests, day, rec)
	// Digest finalization is a merge point for the spilled sets: fold
	// each shard's frozen runs into one so membership probes stay one
	// fence lookup per shard, and surface any disk error now.
	if s.spill != nil {
		if err := s.spill.compact(); err != nil {
			return nil, fmt.Errorf("core: compacting spilled sets: %w", err)
		}
	}

	// 6b. TGA candidate round: generate → probe → feed back, streamed
	// end to end.
	if s.cfg.TGAFeed != nil {
		if err := s.runTGA(ctx, day, rec); err != nil {
			return nil, err
		}
	}

	// 7. Snapshots.
	s.maybeSnapshot(day)

	// Any disk error the sweeps hit (spill writes degrade softly and
	// record a sticky error) fails the scan rather than silently running
	// with a lossy membership view.
	if s.spill != nil {
		if err := s.spill.err(); err != nil {
			return nil, fmt.Errorf("core: spill state: %w", err)
		}
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
	return rec, nil
}

// ingestCounters accumulates the outcome counters of an admission sweep;
// applyIngest folds them into the record and cumulative totals.
type ingestCounters struct {
	newInput, blocked, gfwDrop, aliasedDrop int
	perAS                                   map[int]*ASInput
}

// shardIngest accumulates one shard's slice of an ingest pass; counters
// merge into the record in canonical shard order.
type shardIngest struct {
	ingestCounters
	perFeed  []int
	admitted []routedInput // newly active, in seq order
}

// admitOutcome is what the shared admission chain did with one candidate.
type admitOutcome int

const (
	admitDup      admitOutcome = iota // already known: nothing counted
	admitFiltered                     // counted as input, removed by a filter
	admitAdmitted                     // counted and inserted into the store
)

// admitOne runs the admission chain — dedup, AS attribution, blocklist /
// GFW / aliased filters, store insert — for one candidate in shard sh,
// recording outcomes in c. Only shard-owned and counter state is
// written, so distinct shards may run it concurrently.
func (s *Service) admitOne(sh int, a ip6.Addr, day int, c *ingestCounters) admitOutcome {
	if !s.inputSeen.AddToShard(sh, a) {
		return admitDup // already known (or already evicted once)
	}
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
		return admitFiltered
	}
	// GFW input filter (active only once deployed).
	if s.gfwDeployed && s.gfwInputDrop.HasInShard(sh, a) {
		c.gfwDrop++
		ai.GFW++
		return admitFiltered
	}
	// Aliased prefix filter.
	if s.aliased.Contains(a) {
		c.aliasedDrop++
		ai.Aliased++
		return admitFiltered
	}
	s.active.PutInShard(sh, a, &targetState{firstDay: day, lastSuccessDay: -1})
	return admitAdmitted
}

// applyIngest merges one admission sweep's counters into the record and
// the cumulative accounting.
func (s *Service) applyIngest(rec *ScanRecord, c *ingestCounters) {
	rec.NewInput += c.newInput
	s.inputTotal += c.newInput
	rec.BlockedInput += c.blocked
	s.blockedTotal += c.blocked
	rec.GFWFilteredInput += c.gfwDrop
	s.gfwTotal += c.gfwDrop
	rec.AliasedInput += c.aliasedDrop
	s.aliasedTotal += c.aliasedDrop
	for asn, d := range c.perAS {
		ai := s.perASInput[asn]
		if ai == nil {
			ai = &ASInput{}
			s.perASInput[asn] = ai
		}
		ai.Total += d.Total
		ai.GFW += d.GFW
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
// source chunk-wise in feed-name-sorted order (the same deterministic
// sequence the old collected-map path walked). Candidates are routed to
// their canonical shards in one cheap pass, then admitRouted runs the
// lookup-heavy part per shard. Every source is pulled to exhaustion
// before anything is admitted, so a source error aborts the sweep with
// no state mutated — all-or-nothing for any worker count, exactly like
// the old collect-then-admit pipeline.
func (s *Service) ingest(srcs []sources.NamedSource, day int, rec *ScanRecord) error {
	sort.SliceStable(srcs, func(i, j int) bool { return srcs[i].Name < srcs[j].Name })

	// A durable service spools the candidate stream through the on-disk
	// rollback journal and admits it back in bounded chunks — same
	// deterministic sequence, same all-or-nothing contract, bounded
	// resident footprint.
	if s.cfg.CheckpointDir != "" {
		return s.ingestJournaled(srcs, day, rec)
	}

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
// part (dedup, AS attribution, blocklist / GFW / alias filters, store
// insert) independently on the worker pool — an address only ever
// touches its own shard, so the sweep is lock-free. The merge walks
// shards in canonical order, and anything order-sensitive (the APD /64
// queue, per-feed attribution of same-day duplicates) is resolved by the
// deterministic input sequence number, so results are bit-identical to a
// serial pass for any worker count. Called once per resident ingest and
// once per replay chunk of a journaled one: per-shard admission order
// equals sequence order within a call and calls run in sequence order,
// so every shard observes the candidate order a serial pass over the
// whole stream would deliver.
func (s *Service) admitRouted(srcs []sources.NamedSource, day int, rec *ScanRecord) {
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
		for _, e := range entries {
			outcome := s.admitOne(sh, e.addr, day, &r.ingestCounters)
			if outcome == admitDup {
				continue
			}
			r.perFeed[e.feed]++
			if outcome == admitAdmitted {
				r.admitted = append(r.admitted, e)
			}
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
// the first time it is seen.
func (s *Service) trackSlash64(a ip6.Addr) {
	p64 := ip6.Slash64(a)
	if _, ok := s.seen64[p64]; !ok {
		s.seen64[p64] = struct{}{}
		s.seen64Order = append(s.seen64Order, p64)
		s.pendingAPD64 = append(s.pendingAPD64, p64)
	}
}

// deployGFWFilter materializes the cumulative injected-only list and
// removes it from the active window — the paper's one-time cleanup of
// 134 M addresses in February 2022. The drop list arrives sharded from
// the tracker, so the purge is a per-shard sweep: each shard deletes its
// own slice of the list from the target store, and the per-AS counter
// deltas merge in canonical shard order.
func (s *Service) deployGFWFilter(rec *ScanRecord) {
	s.gfwDeployed = true
	drop := s.tracker.InjectedOnlySharded()
	// Under a memory budget the cumulative drop list moves into a
	// disk-backed set inside the same per-shard sweep that purges the
	// active window, so the resident tracker-built copy dies with this
	// call instead of living for the rest of the run.
	var spillDrop *ip6.SpillSet
	if s.spill != nil {
		spillDrop = s.spill.newSet()
	}
	dropped := make([]shardPurge, ip6.AddrShards)
	ip6.ParallelShards(s.workers, func(sh int) {
		d := &dropped[sh]
		drop.WalkShard(sh, func(a ip6.Addr) bool {
			if s.active.DeleteInShard(sh, a) {
				d.count++
				asn := 0
				if as := s.net.AS.Lookup(a); as != nil {
					asn = as.ASN
				}
				d.addAS(asn)
			}
			return true
		})
		if spillDrop != nil {
			spillDrop.AddAllToShard(sh, drop.Shard(sh))
		}
	})
	if spillDrop != nil {
		s.gfwInputDrop = spillDrop
	} else {
		s.gfwInputDrop = drop
	}
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
}

// shardPurge counts one shard's removals in a purge sweep, with per-AS
// attribution deltas to merge after the sweep.
type shardPurge struct {
	count int
	perAS map[int]int
}

func (d *shardPurge) addAS(asn int) {
	if d.perAS == nil {
		d.perAS = make(map[int]int)
	}
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
			continue
		}
		if taken < s.cfg.APDMaxNewCandidates {
			candidates = append(candidates, p64)
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
		s.active.WalkShard(sh, func(a ip6.Addr, _ *targetState) bool {
			if fresh.Contains(a) {
				s.active.DeleteInShard(sh, a)
				d.count++
				asn := 0
				if as := s.net.AS.Lookup(a); as != nil {
					asn = as.ASN
				}
				d.addAS(asn)
			}
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

// buildScanSet applies the 30-day filter and rebuilds the per-shard scan
// sets in s.scanShards, returning the total target count. Every shard
// evicts its stale targets and sorts its survivors independently on the
// worker pool; the global concatenated-and-sorted target slice of the
// serial implementation is gone — the scanner consumes the shard slices
// directly. Per-shard sorting keeps the engine's batch sequences
// deterministic for order-sensitive sinks (records themselves are
// order-independent), and costs less than one global sort.
func (s *Service) buildScanSet(day int, rec *ScanRecord) int {
	var evicted [ip6.AddrShards]int
	ip6.ParallelShards(s.workers, func(sh int) {
		targets := s.scanShards[sh][:0]
		s.active.WalkShard(sh, func(a ip6.Addr, st *targetState) bool {
			ref := st.lastSuccessDay
			if ref < 0 {
				ref = st.firstDay
			}
			if day-ref > s.cfg.UnresponsiveDays {
				s.active.DeleteInShard(sh, a)
				evicted[sh]++
				if s.cfg.RetainUnresponsive {
					s.unresponsive.AddToShard(sh, a)
				}
				return true
			}
			targets = append(targets, a)
			return true
		})
		ip6.SortAddrs(targets)
		s.scanShards[sh] = targets
	})
	total := 0
	for sh, n := range evicted {
		total += len(s.scanShards[sh])
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
	raw, clean   [netmodel.NumProtocols]int
	rawAny       ip6.Set
	cleanAny     ip6.Set
	cleanByProto [netmodel.NumProtocols]ip6.Set
	injectedDNS  ip6.Set
	injectedRes  int

	// Churn counters, filled in by finalizeDigest.
	firstResp, respAgain, unresp int
}

// digestSink returns the scan.Sink that classifies and folds streamed
// batches into per-shard accumulators. It runs on the engine's worker
// goroutines and touches only its shard's digest (an address lives in
// exactly one shard); service state stays untouched until finalizeDigest,
// so an errored or cancelled scan mutates nothing.
func (s *Service) digestSink(digests []*shardDigest) scan.Sink {
	return func(b *scan.Batch) error {
		d := digests[b.Shard]
		if d == nil {
			d = &shardDigest{
				rawAny:      ip6.NewSet(0),
				cleanAny:    ip6.NewSet(0),
				injectedDNS: ip6.NewSet(0),
			}
			for i := range d.cleanByProto {
				d.cleanByProto[i] = ip6.NewSet(0)
			}
			digests[b.Shard] = d
		}
		for i := range b.Results {
			r := &b.Results[i]
			if !r.Success {
				continue
			}
			// Classify exactly once; the evidence sets below feed the
			// GFW tracker at finalize time (the old path re-parsed the
			// DNS payload three times per result).
			injected := r.Proto == netmodel.UDP53 && gfw.ClassifyResult(*r).Injected()
			d.raw[r.Proto]++
			d.rawAny.Add(r.Target)
			if injected {
				d.injectedRes++
				d.injectedDNS.Add(r.Target)
			} else {
				d.clean[r.Proto]++
				d.cleanAny.Add(r.Target)
				d.cleanByProto[r.Proto].Add(r.Target)
			}
		}
		return nil
	}
}

// finalizeDigest applies the per-shard accumulators to service state —
// target liveness, GFW evidence, cumulative responsive sets, churn — as a
// per-shard sweep on the worker pool (shards are independent, and with
// the sharded target store the liveness bumps are shard-local too: no
// cross-shard locking anywhere), then merges the counters into the record
// in canonical shard order. It only runs for a completed scan, so aborted
// scans leave the service exactly as it was.
func (s *Service) finalizeDigest(digests []*shardDigest, day int, rec *ScanRecord) {
	// lastClean persists across scans: SetShard replaces each shard's
	// content anyway, and a persistent set object is what lets its shard
	// epochs prove "unchanged since the last publication" to the
	// incremental snapshot freeze (SetShard only bumps an epoch when the
	// replacement actually changes membership).
	lastClean := s.lastClean
	if lastClean == nil {
		lastClean = make(map[netmodel.Protocol]*ip6.ShardedSet, len(s.cfg.Protocols))
		for _, p := range s.cfg.Protocols {
			lastClean[p] = ip6.NewShardedSet()
		}
	}

	for sh := 0; sh < ip6.AddrShards; sh++ {
		if digests[sh] == nil {
			// A shard with no batches still matters: its previously
			// responsive addresses all churned to unresponsive. The zero
			// digest's nil sets are safe to read.
			digests[sh] = &shardDigest{}
		}
	}
	ip6.ParallelShards(s.workers, func(sh int) {
		d := digests[sh]
		// Target liveness: before the filter deployment, injected
		// success keeps the target alive (that is the published
		// behaviour), so any response counts; after deployment only
		// clean responses do. Addresses of one shard never appear in
		// another, so the targetState writes are race-free.
		bump := d.cleanAny
		if !s.gfwDeployed {
			bump = d.rawAny
		}
		for a := range bump {
			if st, ok := s.active.GetInShard(sh, a); ok {
				st.lastSuccessDay = day
			}
		}
		s.tracker.AddEvidenceShard(sh, d.injectedDNS, &d.cleanByProto)

		prev := s.prevRespAny.Shard(sh)
		for a := range d.cleanAny {
			if !prev.Has(a) {
				if s.everRespAny.HasInShard(sh, a) {
					d.respAgain++
				} else {
					d.firstResp++
				}
			}
		}
		for a := range prev {
			if !d.cleanAny.Has(a) {
				d.unresp++
			}
		}
		s.everRespAny.AddAllToShard(sh, d.cleanAny)
		for _, p := range s.cfg.Protocols {
			s.everResp[p].AddAllToShard(sh, d.cleanByProto[p])
			lastClean[p].SetShard(sh, d.cleanByProto[p])
		}
		s.prevRespAny.SetShard(sh, d.cleanAny)
	})

	for sh := 0; sh < ip6.AddrShards; sh++ {
		d := digests[sh]
		for p := 0; p < netmodel.NumProtocols; p++ {
			rec.ResponsiveRaw[p] += d.raw[p]
			rec.ResponsiveClean[p] += d.clean[p]
		}
		// Shards partition the address space, so disjoint-set lengths sum
		// to the union's cardinality.
		rec.TotalRaw += d.rawAny.Len()
		rec.TotalClean += d.cleanAny.Len()
		rec.InjectedDNS += d.injectedRes
		rec.FirstResp += d.firstResp
		rec.RespAgain += d.respAgain
		rec.Unresp += d.unresp
	}
	s.lastClean = lastClean
	s.publishServeSnapshot(day)
}

// publishServeSnapshot builds and publishes the serving layer's immutable
// snapshot for this scan: frozen sorted copies of the clean responsive
// sets (any-protocol and per-protocol), a frozen clone of the
// aliased-prefix index, and the frozen GFW injection-evidence set. The
// copies are independent of the live state — the timeline mutates on
// without ever touching a published snapshot — and the publish itself is
// one atomic pointer swap on the QueryHandle, so concurrent readers see
// either the whole previous snapshot or the whole new one, never a mix.
//
// Publication is copy-on-publish incremental: hitlists are highly stable
// between consecutive scans, so each set's freeze shares the previous
// generation's frozen per-shard slices and re-sorts only shards whose
// mutation epoch advanced (ip6.FreezeSortedDelta). Shared slices are
// immutable on both sides, so old and new snapshots stay independently
// queryable. After a restore the previous generation is gone and the
// first publish degrades to a full freeze.
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
	freeze := func(set *ip6.ShardedSet, prevIdx *ip6.SortedShardSet) *ip6.SortedShardSet {
		out, r, sh := ip6.FreezeSortedDelta(set, prevIdx)
		refrozen += r
		shared += sh
		return out
	}
	var perProto [netmodel.NumProtocols]*ip6.SortedShardSet
	for _, p := range s.cfg.Protocols {
		var prevP *ip6.SortedShardSet
		if prev != nil {
			prevP = prev.PerProto[p]
		}
		perProto[p] = freeze(s.lastClean[p], prevP)
	}
	var prevAny, prevInj *ip6.SortedShardSet
	if prev != nil {
		prevAny, prevInj = prev.Any, prev.Injected
	}
	any := freeze(s.prevRespAny, prevAny)
	inj, r, sh := s.tracker.FreezeInjectedSeenDelta(prevInj)
	refrozen += r
	shared += sh
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
// smaller) responder set is.
func (s *Service) runTGA(ctx context.Context, day int, rec *ScanRecord) error {
	seeds, refrozen := s.tgaSeedView()
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
	resp, stats, err := s.scanner.StreamResponsiveFrom(ctx, counted, s.cfg.Protocols, day)
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

	// The responder union is sharded — and, under a memory budget,
	// disk-backed like every other history-sized set — instead of a flat
	// resident set; feedback streams it in globally sorted order without
	// materializing a slice.
	var union ip6.SpillableSet
	var unionSpill *ip6.SpillSet
	if s.spill != nil {
		set, err := ip6.NewSpillSet(s.spill.dir, s.spill.shardBudget)
		if err != nil {
			return fmt.Errorf("core: TGA union spill set: %w", err)
		}
		defer set.Close()
		unionSpill = set
		union = set
	} else {
		union = ip6.NewShardedSet()
	}
	for _, p := range s.cfg.Protocols {
		set := resp[p]
		for sh := 0; sh < ip6.AddrShards; sh++ {
			for a := range set.Shard(sh) {
				union.AddToShard(sh, a)
			}
		}
	}
	rec.TGAResponsive = union.Len()
	if unionSpill != nil {
		if err := unionSpill.Err(); err != nil {
			return fmt.Errorf("core: TGA union spill set: %w", err)
		}
	}
	if union.Len() == 0 {
		return nil
	}
	src, err := sortedUnionSource(union)
	if err != nil {
		return fmt.Errorf("core: TGA feedback source: %w", err)
	}
	feedback := []sources.NamedSource{{Name: s.cfg.TGAFeed.Name(), Src: src}}
	if err := s.ingest(feedback, day, rec); err != nil {
		return err
	}
	if unionSpill != nil {
		if err := unionSpill.Err(); err != nil {
			return fmt.Errorf("core: TGA union spill set: %w", err)
		}
	}
	return nil
}

// tgaSeedView returns the generators' seed view over everRespAny,
// re-frozen by epoch delta: only shards whose membership moved since the
// last round are re-walked and re-sorted, the rest pointer-share their
// frozen span with the previous view. Steady-state TGA rounds — no new
// responders since the previous round — reuse every span for free, and
// the cumulative seed slice is never materialized at all. It returns the
// view plus the number of shards re-frozen.
func (s *Service) tgaSeedView() (*tga.SeedView, int) {
	frozen, refrozen, _ := ip6.FreezeSortedDelta(s.everRespAny, s.tgaFrozen)
	s.tgaFrozen = frozen
	s.tgaView = tga.NewSeedView(frozen)
	return s.tgaView, refrozen
}

// maybeSnapshot captures due snapshots. Snapshots read only the
// scan-sized resident sets (prevRespAny, lastClean, aliased), so no
// spill interaction happens here; the spilled cumulative sets were
// compacted moments earlier in RunScan's digest-finalization step, which
// is what keeps the InputSeen/EverResponsive accessor merges cheap at
// snapshot days too.
func (s *Service) maybeSnapshot(day int) {
	for len(s.snapQueue) > 0 && day >= s.snapQueue[0] {
		want := s.snapQueue[0]
		s.snapQueue = s.snapQueue[1:]
		snap := &Snapshot{
			Day:           day,
			Responsive:    make(map[netmodel.Protocol]ip6.Set, len(s.lastClean)),
			ResponsiveAny: s.prevRespAny.Merge(),
			Aliased:       s.aliased.Prefixes(),
		}
		for p, set := range s.lastClean {
			snap.Responsive[p] = set.Merge()
		}
		s.snapshots[want] = snap
	}
}
