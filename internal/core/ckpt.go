package core

// Checkpoint/restore: a crash-consistent on-disk image of full service
// state, so a multi-week timeline survives restarts. Service.Checkpoint
// stages every piece of cumulative state into a ckpt.Writer — address
// sets as .hl6 images streamed shard-sorted (resident sets sort a copy,
// SpillSets merge their frozen runs without materializing anything),
// the active target store and APD history as small binary tables, and
// counters/records/snapshots as JSON — then commits atomically. Resume
// rebuilds a Service from the newest complete checkpoint; a timeline
// interrupted at day k (SIGKILL included) and resumed is byte-identical
// to an uninterrupted run for any worker count, FleetWorkers, memory
// budget and serve cadence (TestResumeMatchesUninterrupted).
//
// Deliberately not persisted: lastMain (the wall-clock shard profile —
// outputs are pinned hand-out-order-invariant, so the resumed run's
// first scan just orders shards by size) and published serve
// snapshots (derived state; only the generation counter survives, via
// serve.Handle.RestoreGeneration, so numbering continues seamlessly).

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"

	"hitlist6/internal/apd"
	"hitlist6/internal/ckpt"
	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/sources"
)

// Checkpoint payload file names.
const (
	ckptStateFile     = "state.json"
	ckptRecordsFile   = "records.json"
	ckptSnapshotsFile = "snapshots.json"
	ckptActiveFile    = "active.bin"
	ckptInputSeenFile = "inputseen.hl6"
	ckptEverAnyFile   = "everrespany.hl6"
	ckptGFWDropFile   = "gfwdrop.hl6"
	ckptPrevRespFile  = "prevresp.hl6"
	ckptTrkInjFile    = "trk_injected.hl6"
	ckptTrkOtherFile  = "trk_other.hl6"
	ckptTrkRealFile   = "trk_realdns.hl6"
	ckptUnrespFile    = "unresp.hl6"
	ckptAPDFile       = "apd_history.bin"
	ckptPending64File = "pending64.bin"
	ckptSeen64File    = "seen64.bin"
)

func ckptEverRespFile(p int) string  { return fmt.Sprintf("everresp_%d.hl6", p) }
func ckptLastCleanFile(p int) string { return fmt.Sprintf("lastclean_%d.hl6", p) }

// JournalPath returns where the ingest journal for a checkpoint
// directory lives: a sibling file, so the checkpoint directory itself
// only ever holds committed state.
func JournalPath(dir string) string { return dir + ".journal" }

// ckptState is the JSON-encoded scalar state plus the configuration
// digest Resume verifies before loading anything.
type ckptState struct {
	// Configuration digest: the knobs that shape service state. Worker
	// counts, FleetWorkers, memory budget and batch size are deliberately
	// absent — outputs are pinned invariant to them, so a resumed run
	// may change them freely.
	Seed             uint64 `json:"seed"`
	Protocols        []int  `json:"protocols"`
	UnresponsiveDays int    `json:"unresponsive_days"`
	GFWFilterFromDay int    `json:"gfw_filter_from_day"`
	APDEveryScans    int    `json:"apd_every_scans"`
	APDMaxNew        int    `json:"apd_max_new_candidates"`
	RetainUnresp     bool   `json:"retain_unresponsive"`
	SnapshotDays     []int  `json:"snapshot_days,omitempty"`
	ServeEvery       int    `json:"serve_every,omitempty"`
	TGAFeedName      string `json:"tga_feed,omitempty"`

	// Cursor and cumulative accounting.
	ScanIndex    int                `json:"scan_index"`
	InputTotal   int                `json:"input_total"`
	BlockedTotal int                `json:"blocked_total"`
	GFWTotal     int                `json:"gfw_total"`
	AliasedTotal int                `json:"aliased_total"`
	EvictedTotal int                `json:"evicted_total"`
	GFWDeployed  bool               `json:"gfw_deployed"`
	PerASInput   map[string]ASInput `json:"per_as_input,omitempty"`
	InputByFeed  map[string]int     `json:"input_by_feed,omitempty"`
	Aliased      []string           `json:"aliased_prefixes,omitempty"`
	SnapQueue    []int              `json:"snap_queue,omitempty"`
	ServeScans   int                `json:"serve_scans"`
	Generation   uint64             `json:"generation"`
}

// configState extracts the digest fields from a (normalized) Config.
func configState(cfg Config) ckptState {
	st := ckptState{
		Seed:             cfg.Seed,
		UnresponsiveDays: cfg.UnresponsiveDays,
		GFWFilterFromDay: cfg.GFWFilterFromDay,
		APDEveryScans:    cfg.APDEveryScans,
		APDMaxNew:        cfg.APDMaxNewCandidates,
		RetainUnresp:     cfg.RetainUnresponsive,
		SnapshotDays:     cfg.SnapshotDays,
		ServeEvery:       cfg.ServeEvery,
	}
	for _, p := range cfg.Protocols {
		st.Protocols = append(st.Protocols, int(p))
	}
	if cfg.TGAFeed != nil {
		st.TGAFeedName = cfg.TGAFeed.Name()
	}
	return st
}

// defaultCheckpointFullEvery is the compaction cadence when
// Config.CheckpointFullEvery is unset: one full rewrite per 8
// checkpoints bounds restore to reading at most 8 chain levels.
const defaultCheckpointFullEvery = 8

// ckptMark remembers which set object a checkpoint payload was written
// from and the per-shard epochs at write time. Object identity matters:
// epochs are only comparable within one set object, so a wholesale set
// replacement (GFW-filter deployment swaps in a fresh drop set) makes
// every shard dirty automatically.
type ckptMark struct {
	set    ip6.SpillableSet
	epochs [ip6.AddrShards]uint64
}

func markOf(set ip6.SpillableSet) *ckptMark {
	m := &ckptMark{set: set}
	for sh := 0; sh < ip6.AddrShards; sh++ {
		m.epochs[sh] = set.ShardEpoch(sh)
	}
	return m
}

// dirtyMask returns the bitmap of shards whose epoch moved since mark
// (bit i = shard i dirty); with no usable mark every shard is dirty.
func dirtyMask(mark *ckptMark, set ip6.SpillableSet) uint64 {
	if mark == nil || mark.set != set {
		return ^uint64(0)
	}
	var mask uint64
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if set.ShardEpoch(sh) != mark.epochs[sh] {
			mask |= 1 << uint(sh)
		}
	}
	return mask
}

// ckptPayload is one delta-eligible address-set payload.
type ckptPayload struct {
	name string
	set  ip6.SpillableSet
}

// addrSetPayloads lists the cumulative address sets a checkpoint stages
// as (possibly delta) .hl6 payloads, in canonical write order. The list
// is computed per call: payloads appear as the state they mirror does
// (the GFW drop set after deployment, lastClean after the first scan).
func (s *Service) addrSetPayloads() []ckptPayload {
	out := []ckptPayload{
		{ckptInputSeenFile, s.inputSeen},
		{ckptEverAnyFile, s.everRespAny},
	}
	for p := range s.everResp {
		out = append(out, ckptPayload{ckptEverRespFile(p), s.everResp[p]})
	}
	if s.gfwDeployed {
		out = append(out, ckptPayload{ckptGFWDropFile, s.gfwInputDrop})
	}
	out = append(out, ckptPayload{ckptPrevRespFile, s.prevRespAny})
	if s.lastClean != nil {
		for _, p := range s.cfg.Protocols {
			out = append(out, ckptPayload{ckptLastCleanFile(int(p)), s.lastClean[p]})
		}
	}
	inj, other, real := s.tracker.EvidenceSets()
	out = append(out,
		ckptPayload{ckptTrkInjFile, inj},
		ckptPayload{ckptTrkOtherFile, other},
		ckptPayload{ckptTrkRealFile, real})
	return out
}

// Checkpoint writes a crash-consistent snapshot of the service's full
// state to dir (atomically replacing any previous checkpoint there).
// The service stays usable afterwards; SpillSet deltas are frozen to
// disk as a side effect, which changes no membership observation.
//
// Successive checkpoints into the same directory are written as deltas:
// cumulative address-set payloads carry only the shards whose mutation
// epoch advanced since the previous checkpoint, the superseded head is
// parked as the new head's parent, and Resume resolves shards through
// the chain. Every CheckpointFullEvery-th checkpoint (and any checkpoint
// without a usable parent — first ever, different directory, resumed
// from a fallback) is a full rewrite that collapses the chain.
func (s *Service) Checkpoint(dir string) (err error) {
	if s.spill != nil {
		if err := s.spill.err(); err != nil {
			return fmt.Errorf("core: checkpoint with failed spill state: %w", err)
		}
		if filepath.Clean(dir) == filepath.Clean(s.spill.dir) {
			return fmt.Errorf("core: checkpoint dir %s collides with spill dir", dir)
		}
	}
	fullEvery := s.cfg.CheckpointFullEvery
	if fullEvery <= 0 {
		fullEvery = defaultCheckpointFullEvery
	}
	// Delta only against a head this process wrote (or resumed from) at
	// an earlier scan: equal scan indexes would collide in the parent
	// namespace, and a foreign directory has no marks to diff against.
	delta := s.ckptMarks != nil && s.ckptDir == filepath.Clean(dir) &&
		s.scanIndex > s.ckptScan && s.ckptDepth+1 < fullEvery
	var w *ckpt.Writer
	if delta {
		if w, err = ckpt.BeginDelta(dir); err != nil {
			// Head unreadable (wiped, damaged): fall back to a full
			// rewrite rather than failing the checkpoint.
			delta, w = false, nil
		}
	}
	if w == nil {
		if w, err = ckpt.Begin(dir); err != nil {
			return err
		}
	}
	defer func() {
		if err != nil {
			w.Abort()
		}
	}()

	if err := s.writeState(w); err != nil {
		return err
	}
	if err := writeJSONFile(w, ckptRecordsFile, s.records, int64(len(s.records))); err != nil {
		return err
	}
	if err := s.writeSnapshots(w); err != nil {
		return err
	}
	if err := s.writeActive(w); err != nil {
		return err
	}
	newMarks := make(map[string]*ckptMark)
	for _, pl := range s.addrSetPayloads() {
		if err := s.writeAddrSet(w, pl.name, pl.set, delta, newMarks); err != nil {
			return err
		}
	}
	if s.cfg.RetainUnresponsive {
		if err := writeFlatSet(w, ckptUnrespFile, s.unresponsive); err != nil {
			return err
		}
	}
	if err := s.writeAPDHistory(w); err != nil {
		return err
	}
	if err := writePrefixList(w, ckptPending64File, s.pendingAPD64); err != nil {
		return err
	}
	if err := writePrefixList(w, ckptSeen64File, s.seen64Order); err != nil {
		return err
	}

	lastDay := -1
	if len(s.records) > 0 {
		lastDay = s.records[len(s.records)-1].Day
	}
	if err := w.Commit(ckpt.Manifest{
		ScanIndex:  s.scanIndex,
		LastDay:    lastDay,
		Generation: s.queryHandle.Generation(),
	}); err != nil {
		return err
	}
	// Only a committed head updates the delta baseline — an aborted
	// write leaves the old head (and its marks) valid.
	s.ckptMarks = newMarks
	s.ckptDir = filepath.Clean(dir)
	s.ckptScan = s.scanIndex
	if delta {
		s.ckptDepth++
	} else {
		s.ckptDepth = 0
	}
	return nil
}

// writeState stages state.json.
func (s *Service) writeState(w *ckpt.Writer) error {
	st := configState(s.cfg)
	st.ScanIndex = s.scanIndex
	st.InputTotal = s.inputTotal
	st.BlockedTotal = s.blockedTotal
	st.GFWTotal = s.gfwTotal
	st.AliasedTotal = s.aliasedTotal
	st.EvictedTotal = s.evictedTotal
	st.GFWDeployed = s.gfwDeployed
	st.ServeScans = s.serveScans
	st.Generation = s.queryHandle.Generation()
	if len(s.perASInput) > 0 {
		st.PerASInput = make(map[string]ASInput, len(s.perASInput))
		for asn, ai := range s.perASInput {
			st.PerASInput[strconv.Itoa(asn)] = *ai
		}
	}
	if len(s.inputByFeed) > 0 {
		st.InputByFeed = s.inputByFeed
	}
	for _, p := range s.aliased.Prefixes() {
		st.Aliased = append(st.Aliased, p.String())
	}
	st.SnapQueue = s.snapQueue
	return writeJSONFile(w, ckptStateFile, &st, 0)
}

// writeSnapshots stages snapshots.json: requested-day keys mapping to
// sorted string-encoded sets (the exact encoding golden comparisons use,
// so a JSON round trip is loss-free).
func (s *Service) writeSnapshots(w *ckpt.Writer) error {
	type ckptSnapshot struct {
		Day        int                 `json:"day"`
		Responsive map[string][]string `json:"responsive"`
		Any        []string            `json:"responsive_any"`
		Aliased    []string            `json:"aliased"`
	}
	out := make(map[string]ckptSnapshot, len(s.snapshots))
	for want, snap := range s.snapshots {
		cs := ckptSnapshot{Day: snap.Day, Responsive: make(map[string][]string, len(snap.Responsive))}
		for p, set := range snap.Responsive {
			cs.Responsive[strconv.Itoa(int(p))] = addrStrings(set)
		}
		cs.Any = addrStrings(snap.ResponsiveAny)
		for _, p := range snap.Aliased {
			cs.Aliased = append(cs.Aliased, p.String())
		}
		out[strconv.Itoa(want)] = cs
	}
	return writeJSONFile(w, ckptSnapshotsFile, out, int64(len(out)))
}

func addrStrings(set ip6.Set) []string {
	out := make([]string, 0, len(set))
	for _, a := range set.Sorted() {
		out = append(out, a.String())
	}
	return out
}

// writeActive stages the target store: a per-shard count table, then
// each shard's (address, firstDay, lastSuccessDay) records sorted by
// address.
func (s *Service) writeActive(w *ckpt.Writer) error {
	f, err := w.Create(ckptActiveFile)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 64*1024)
	var hdr [8 * ip6.AddrShards]byte
	total := int64(0)
	for sh := 0; sh < ip6.AddrShards; sh++ {
		n := s.active.ShardLen(sh)
		binary.LittleEndian.PutUint64(hdr[8*sh:], uint64(n))
		total += int64(n)
	}
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	type activeRec struct {
		addr ip6.Addr
		st   targetState
	}
	var recs []activeRec
	var rec [ip6.AddrBytes + 8]byte
	for sh := 0; sh < ip6.AddrShards; sh++ {
		recs = recs[:0]
		s.active.WalkShard(sh, func(a ip6.Addr, st *targetState) bool {
			recs = append(recs, activeRec{addr: a, st: *st})
			return true
		})
		slices.SortFunc(recs, func(x, y activeRec) int { return x.addr.Compare(y.addr) })
		for _, r := range recs {
			copy(rec[:], r.addr[:])
			binary.LittleEndian.PutUint32(rec[16:], uint32(int32(r.st.firstDay)))
			binary.LittleEndian.PutUint32(rec[20:], uint32(int32(r.st.lastSuccessDay)))
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	f.SetCount(total)
	return f.Close()
}

// writeAPDHistory stages the detector's per-prefix response history.
func (s *Service) writeAPDHistory(w *ckpt.Writer) error {
	entries := s.detector.ExportHistory()
	f, err := w.Create(ckptAPDFile)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 64*1024)
	var n4 [4]byte
	binary.LittleEndian.PutUint32(n4[:], uint32(len(entries)))
	if _, err := bw.Write(n4[:]); err != nil {
		return err
	}
	for _, e := range entries {
		buf := appendPrefix(bw.AvailableBuffer(), e.Prefix)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Counts)))
		for _, c := range e.Counts {
			buf = binary.LittleEndian.AppendUint16(buf, c)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	f.SetCount(int64(len(entries)))
	return f.Close()
}

// writeJSONFile stages one JSON payload file.
func writeJSONFile(w *ckpt.Writer, name string, v any, count int64) error {
	f, err := w.Create(name)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("core: encoding %s: %w", name, err)
	}
	data = append(data, '\n')
	if _, err := f.Write(data); err != nil {
		return err
	}
	f.SetCount(count)
	return f.Close()
}

// writeAddrSet stages a sharded address set as a .hl6 image, streamed in
// shard-sorted order: resident shards sort a copy, SpillSet shards merge
// their frozen runs straight off disk. With dirtyOnly set the payload is
// a delta: shards whose epoch matches the previous checkpoint's mark are
// written with zero count and excluded from the file's DeltaShards
// bitmap — readers resolve them through the parent chain. newMarks, when
// non-nil, receives the set's current epochs under name so the next
// checkpoint can diff against this one.
func (s *Service) writeAddrSet(w *ckpt.Writer, name string, set ip6.SpillableSet, dirtyOnly bool, newMarks map[string]*ckptMark) error {
	mask := ^uint64(0)
	if dirtyOnly {
		mask = dirtyMask(s.ckptMarks[name], set)
	}
	if err := writeAddrSetMasked(w, name, set, mask, dirtyOnly); err != nil {
		return err
	}
	if newMarks != nil {
		newMarks[name] = markOf(set)
	}
	return nil
}

// writeAddrSetMasked streams the shards selected by mask; with delta set
// the file records mask as its DeltaShards bitmap.
func writeAddrSetMasked(w *ckpt.Writer, name string, set ip6.SpillableSet, mask uint64, delta bool) error {
	f, err := w.Create(name)
	if err != nil {
		return err
	}
	var counts [ip6.AddrShards]uint64
	total := int64(0)
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if mask&(1<<uint(sh)) == 0 {
			continue
		}
		counts[sh] = uint64(set.ShardLen(sh))
		total += int64(counts[sh])
	}
	spill, _ := set.(*ip6.SpillSet)
	var scratch []ip6.Addr
	err = hlfile.WriteSharded(f, &counts, func(sh int, emit func(ip6.Addr) error) error {
		if mask&(1<<uint(sh)) == 0 {
			return nil
		}
		if spill != nil {
			return spill.WalkShardSorted(sh, emit)
		}
		scratch = scratch[:0]
		set.WalkShard(sh, func(a ip6.Addr) bool {
			scratch = append(scratch, a)
			return true
		})
		ip6.SortAddrs(scratch)
		for _, a := range scratch {
			if err := emit(a); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: writing %s: %w", name, err)
	}
	if delta {
		f.SetDeltaShards(mask)
	}
	f.SetCount(total)
	return f.Close()
}

// writeFlatSet stages a flat Set as a .hl6 image, bucketing by canonical
// shard first. Always full content: the fresh bucketing set has no
// epoch continuity to diff against.
func writeFlatSet(w *ckpt.Writer, name string, set ip6.Set) error {
	sharded := ip6.NewShardedSet()
	for a := range set {
		sharded.Add(a)
	}
	return writeAddrSetMasked(w, name, sharded, ^uint64(0), false)
}

// writePrefixList stages prefixes in the given order (17 bytes each:
// masked address + length).
func writePrefixList(w *ckpt.Writer, name string, prefixes []ip6.Prefix) error {
	f, err := w.Create(name)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 64*1024)
	var n4 [4]byte
	binary.LittleEndian.PutUint32(n4[:], uint32(len(prefixes)))
	if _, err := bw.Write(n4[:]); err != nil {
		return err
	}
	for _, p := range prefixes {
		if _, err := bw.Write(appendPrefix(bw.AvailableBuffer(), p)); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	f.SetCount(int64(len(prefixes)))
	return f.Close()
}

// appendPrefix appends p's 17-byte record (masked address + length).
// Writers build records in bufio's free space (AvailableBuffer), so
// staging a table allocates nothing per entry.
func appendPrefix(b []byte, p ip6.Prefix) []byte {
	a := p.Addr()
	return append(append(b, a[:]...), byte(p.Bits()))
}

// readPrefix reads one appendPrefix record; a length byte above 128 is
// an error, not a panic.
func readPrefix(r io.Reader) (ip6.Prefix, error) {
	var buf [ip6.AddrBytes + 1]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return ip6.Prefix{}, err
	}
	bits := int(buf[ip6.AddrBytes])
	if bits > 128 {
		return ip6.Prefix{}, fmt.Errorf("prefix length %d", bits)
	}
	return ip6.PrefixFrom(ip6.AddrFrom16([ip6.AddrBytes]byte(buf[:ip6.AddrBytes])), bits), nil
}

// openTable opens a binary table payload (a 4-byte entry count, then the
// entries) and reads its count, refusing one the manifest's byte size
// cannot hold at minEntry bytes per entry: a damaged header never sizes
// an allocation. The caller closes the file.
func openTable(snap *ckpt.Snapshot, name string, minEntry int64) (*os.File, *bufio.Reader, int, error) {
	fi, ok := snap.Info(name)
	if !ok {
		return nil, nil, 0, fmt.Errorf("%w: %s missing from manifest", ckpt.ErrCorrupt, name)
	}
	f, err := os.Open(snap.Path(name))
	if err != nil {
		return nil, nil, 0, err
	}
	br := bufio.NewReaderSize(f, 64*1024)
	var n4 [4]byte
	if _, err := io.ReadFull(br, n4[:]); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("%w: %s header: %v", ckpt.ErrCorrupt, name, err)
	}
	n := int64(binary.LittleEndian.Uint32(n4[:]))
	if n > (fi.Bytes-int64(len(n4)))/minEntry {
		f.Close()
		return nil, nil, 0, fmt.Errorf("%w: %s claims %d entries in %d bytes", ckpt.ErrCorrupt, name, n, fi.Bytes)
	}
	return f, br, int(n), nil
}

// Resume rebuilds a Service from the newest complete checkpoint under
// dir (falling back to the ".prev" copy or a parked delta parent if a
// crash interrupted the commit renames). Delta chains are resolved and
// fully verified: every payload shard is loaded from the newest chain
// level that carries it. cfg must agree with the checkpointed
// configuration on every state-shaping knob; worker count, FleetWorkers,
// memory budget and serve attachment may differ freely — outputs are
// pinned invariant to them. A stale ingest journal next to dir is debris
// from a crash mid-scan and is discarded: the interrupted scan re-runs
// in full on the resumed service. Validation failures (truncated files,
// CRC mismatches, missing or damaged chain parents, config drift) return
// an error with no service constructed — restore never half-loads.
func Resume(dir string, cfg Config, net *netmodel.Network, feeds []*sources.Feed, blocklist *ip6.PrefixSet) (*Service, error) {
	resolved, err := ckpt.Resolve(dir)
	if err != nil {
		return nil, err
	}
	snap, err := ckpt.OpenChain(resolved)
	if err != nil {
		return nil, err
	}
	var st ckptState
	if err := readJSONFile(snap, ckptStateFile, &st); err != nil {
		return nil, err
	}

	s := NewService(cfg, net, feeds, blocklist)
	if s.spill != nil {
		if err := s.spill.err(); err != nil {
			s.Close()
			return nil, fmt.Errorf("core: resume spill state: %w", err)
		}
	}
	if err := checkConfig(configState(s.cfg), st); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.restoreFrom(snap, &st); err != nil {
		s.Close()
		return nil, err
	}
	// With the head itself resolved (not a fallback copy under another
	// name), the loaded sets' current epochs become the delta baseline:
	// the next Checkpoint into dir can chain onto this head. A fallback
	// resolve leaves no baseline, so the next checkpoint is a full
	// rewrite — correct in every crash window.
	if filepath.Clean(resolved) == filepath.Clean(dir) {
		marks := make(map[string]*ckptMark)
		for _, pl := range s.addrSetPayloads() {
			marks[pl.name] = markOf(pl.set)
		}
		s.ckptMarks = marks
		s.ckptDir = filepath.Clean(dir)
		s.ckptScan = snap.Manifest.ScanIndex
		s.ckptDepth = snap.Manifest.Depth
	}
	// A journal file here means the crash landed mid-scan, after spooling
	// candidates but before the scan finalized: the whole scan replays on
	// the resumed timeline, so the spooled sequence is void.
	os.Remove(JournalPath(dir))
	return s, nil
}

// checkConfig verifies the resumed configuration digest matches the
// checkpointed one.
func checkConfig(now, saved ckptState) error {
	saved = ckptState{
		Seed:             saved.Seed,
		Protocols:        saved.Protocols,
		UnresponsiveDays: saved.UnresponsiveDays,
		GFWFilterFromDay: saved.GFWFilterFromDay,
		APDEveryScans:    saved.APDEveryScans,
		APDMaxNew:        saved.APDMaxNew,
		RetainUnresp:     saved.RetainUnresp,
		SnapshotDays:     saved.SnapshotDays,
		ServeEvery:       saved.ServeEvery,
		TGAFeedName:      saved.TGAFeedName,
	}
	if !reflect.DeepEqual(now, saved) {
		return fmt.Errorf("%w: configuration drift: checkpoint was taken with different state-shaping settings (have %+v, checkpoint %+v)", ckpt.ErrCorrupt, now, saved)
	}
	return nil
}

// restoreFrom loads every payload into the freshly built service.
func (s *Service) restoreFrom(snap *ckpt.Snapshot, st *ckptState) error {
	s.scanIndex = st.ScanIndex
	s.inputTotal = st.InputTotal
	s.blockedTotal = st.BlockedTotal
	s.gfwTotal = st.GFWTotal
	s.aliasedTotal = st.AliasedTotal
	s.evictedTotal = st.EvictedTotal
	s.serveScans = st.ServeScans
	s.queryHandle.RestoreGeneration(st.Generation)
	for asn, ai := range st.PerASInput {
		n, err := strconv.Atoi(asn)
		if err != nil {
			return fmt.Errorf("%w: per-AS key %q", ckpt.ErrCorrupt, asn)
		}
		cp := ai
		s.perASInput[n] = &cp
	}
	for feed, n := range st.InputByFeed {
		s.inputByFeed[feed] = n
	}
	for _, ps := range st.Aliased {
		p, err := ip6.ParsePrefix(ps)
		if err != nil {
			return fmt.Errorf("%w: aliased prefix %q", ckpt.ErrCorrupt, ps)
		}
		s.aliased.Add(p)
	}
	s.aliased.Freeze()
	s.snapQueue = append([]int(nil), st.SnapQueue...)

	if err := readJSONFile(snap, ckptRecordsFile, &s.records); err != nil {
		return err
	}
	if err := s.readSnapshots(snap); err != nil {
		return err
	}
	if err := s.readActive(snap); err != nil {
		return err
	}
	if err := loadAddrSet(snap, ckptInputSeenFile, s.inputSeen); err != nil {
		return err
	}
	if err := loadAddrSet(snap, ckptEverAnyFile, s.everRespAny); err != nil {
		return err
	}
	for p := range s.everResp {
		if err := loadAddrSet(snap, ckptEverRespFile(p), s.everResp[p]); err != nil {
			return err
		}
	}
	if st.GFWDeployed {
		s.gfwDeployed = true
		drop := s.newCumulativeSet()
		if s.spill != nil {
			if err := s.spill.err(); err != nil {
				return fmt.Errorf("core: resume spill state: %w", err)
			}
		}
		if err := loadAddrSet(snap, ckptGFWDropFile, drop); err != nil {
			return err
		}
		s.gfwInputDrop = drop
	}
	if err := loadAddrSet(snap, ckptPrevRespFile, s.prevRespAny); err != nil {
		return err
	}
	if snap.HasInChain(ckptLastCleanFile(int(s.cfg.Protocols[0]))) {
		s.lastClean = make(map[netmodel.Protocol]*ip6.ShardedSet, len(s.cfg.Protocols))
		for _, p := range s.cfg.Protocols {
			set := ip6.NewShardedSet()
			if err := loadAddrSet(snap, ckptLastCleanFile(int(p)), set); err != nil {
				return err
			}
			s.lastClean[p] = set
		}
	}
	inj, other, real := s.tracker.EvidenceSets()
	if err := loadAddrSet(snap, ckptTrkInjFile, inj); err != nil {
		return err
	}
	if err := loadAddrSet(snap, ckptTrkOtherFile, other); err != nil {
		return err
	}
	if err := loadAddrSet(snap, ckptTrkRealFile, real); err != nil {
		return err
	}
	if s.cfg.RetainUnresponsive && snap.HasInChain(ckptUnrespFile) {
		flat := ip6.NewShardedSet()
		if err := loadAddrSet(snap, ckptUnrespFile, flat); err != nil {
			return err
		}
		s.unresponsive = flat.Merge()
	}
	if err := s.readAPDHistory(snap); err != nil {
		return err
	}
	pending, _, err := readPrefixList(snap, ckptPending64File)
	if err != nil {
		return err
	}
	s.pendingAPD64 = pending
	// The /64s reload in file order, so the next checkpoint appends to
	// exactly the list this one wrote.
	if s.seen64Order, s.seen64, err = readPrefixList(snap, ckptSeen64File); err != nil {
		return err
	}
	if s.spill != nil {
		if err := s.spill.err(); err != nil {
			return fmt.Errorf("core: resume spill state: %w", err)
		}
	}
	return nil
}

// readJSONFile parses one JSON payload.
func readJSONFile(snap *ckpt.Snapshot, name string, v any) error {
	if !snap.Has(name) {
		return fmt.Errorf("%w: %s missing from manifest", ckpt.ErrCorrupt, name)
	}
	data, err := os.ReadFile(snap.Path(name))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w: %s: %v", ckpt.ErrCorrupt, name, err)
	}
	return nil
}

// readSnapshots rebuilds the captured snapshots.
func (s *Service) readSnapshots(snap *ckpt.Snapshot) error {
	type ckptSnapshot struct {
		Day        int                 `json:"day"`
		Responsive map[string][]string `json:"responsive"`
		Any        []string            `json:"responsive_any"`
		Aliased    []string            `json:"aliased"`
	}
	var raw map[string]ckptSnapshot
	if err := readJSONFile(snap, ckptSnapshotsFile, &raw); err != nil {
		return err
	}
	for key, cs := range raw {
		want, err := strconv.Atoi(key)
		if err != nil {
			return fmt.Errorf("%w: snapshot key %q", ckpt.ErrCorrupt, key)
		}
		out := &Snapshot{Day: cs.Day, Responsive: make(map[netmodel.Protocol]ip6.Set, len(cs.Responsive))}
		for pk, addrs := range cs.Responsive {
			p, err := strconv.Atoi(pk)
			if err != nil || p < 0 || p >= netmodel.NumProtocols {
				return fmt.Errorf("%w: snapshot protocol key %q", ckpt.ErrCorrupt, pk)
			}
			set, err := parseAddrSet(addrs)
			if err != nil {
				return err
			}
			out.Responsive[netmodel.Protocol(p)] = set
		}
		if out.ResponsiveAny, err = parseAddrSet(cs.Any); err != nil {
			return err
		}
		for _, ps := range cs.Aliased {
			p, err := ip6.ParsePrefix(ps)
			if err != nil {
				return fmt.Errorf("%w: snapshot aliased prefix %q", ckpt.ErrCorrupt, ps)
			}
			out.Aliased = append(out.Aliased, p)
		}
		s.snapshots[want] = out
	}
	return nil
}

func parseAddrSet(addrs []string) (ip6.Set, error) {
	set := ip6.NewSet(len(addrs))
	for _, as := range addrs {
		a, err := ip6.ParseAddr(as)
		if err != nil {
			return nil, fmt.Errorf("%w: snapshot address %q", ckpt.ErrCorrupt, as)
		}
		set.Add(a)
	}
	return set, nil
}

// readActive rebuilds the sharded target store.
func (s *Service) readActive(snap *ckpt.Snapshot) error {
	if !snap.Has(ckptActiveFile) {
		return fmt.Errorf("%w: %s missing from manifest", ckpt.ErrCorrupt, ckptActiveFile)
	}
	f, err := os.Open(snap.Path(ckptActiveFile))
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64*1024)
	var hdr [8 * ip6.AddrShards]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: %s header: %v", ckpt.ErrCorrupt, ckptActiveFile, err)
	}
	var rec [ip6.AddrBytes + 8]byte
	for sh := 0; sh < ip6.AddrShards; sh++ {
		n := binary.LittleEndian.Uint64(hdr[8*sh:])
		for i := uint64(0); i < n; i++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return fmt.Errorf("%w: %s truncated: %v", ckpt.ErrCorrupt, ckptActiveFile, err)
			}
			a := ip6.AddrFrom16([ip6.AddrBytes]byte(rec[:ip6.AddrBytes]))
			s.active.PutInShard(sh, a, &targetState{
				firstDay:       int(int32(binary.LittleEndian.Uint32(rec[16:]))),
				lastSuccessDay: int(int32(binary.LittleEndian.Uint32(rec[20:]))),
			})
		}
	}
	return nil
}

// readAPDHistory rebuilds the detector's response history in file order.
func (s *Service) readAPDHistory(snap *ckpt.Snapshot) error {
	// An entry is at least a prefix and a 2-byte round count.
	f, br, n, err := openTable(snap, ckptAPDFile, ip6.AddrBytes+1+2)
	if err != nil {
		return err
	}
	defer f.Close()
	entries := make([]apd.HistoryEntry, 0, n)
	var u2 [2]byte
	for i := 0; i < n; i++ {
		p, err := readPrefix(br)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ckpt.ErrCorrupt, ckptAPDFile, err)
		}
		if _, err := io.ReadFull(br, u2[:]); err != nil {
			return fmt.Errorf("%w: %s truncated: %v", ckpt.ErrCorrupt, ckptAPDFile, err)
		}
		counts := make([]uint16, binary.LittleEndian.Uint16(u2[:]))
		for j := range counts {
			if _, err := io.ReadFull(br, u2[:]); err != nil {
				return fmt.Errorf("%w: %s truncated: %v", ckpt.ErrCorrupt, ckptAPDFile, err)
			}
			counts[j] = binary.LittleEndian.Uint16(u2[:])
		}
		entries = append(entries, apd.HistoryEntry{Prefix: p, Counts: counts})
	}
	if err := s.detector.ImportHistory(entries); err != nil {
		return fmt.Errorf("%w: %s: %v", ckpt.ErrCorrupt, ckptAPDFile, err)
	}
	return nil
}

// loadAddrSet streams a .hl6 payload back into a sharded set, resolving
// each shard through the delta chain: the newest level carrying the
// shard holds its current content (a delta writes a shard exactly when
// it changed). Single-level checkpoints degenerate to one reader.
func loadAddrSet(snap *ckpt.Snapshot, name string, set ip6.SpillableSet) error {
	if !snap.HasInChain(name) {
		return fmt.Errorf("%w: %s missing from manifest", ckpt.ErrCorrupt, name)
	}
	readers := make(map[string]*hlfile.Reader)
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	shardCursor := func(sh int) (func() (ip6.Addr, bool, error), error) {
		lvl := snap.FindShard(name, sh)
		if lvl == nil {
			return nil, fmt.Errorf("%w: %s shard %d unresolved in delta chain", ckpt.ErrCorrupt, name, sh)
		}
		rdr, ok := readers[lvl.Dir]
		if !ok {
			var err error
			rdr, err = hlfile.Open(lvl.Path(name))
			if err != nil {
				return nil, fmt.Errorf("core: opening %s: %w", lvl.Path(name), err)
			}
			readers[lvl.Dir] = rdr
		}
		return rdr.ShardCursor(sh), nil
	}
	if spill, ok := set.(*ip6.SpillSet); ok {
		for sh := 0; sh < ip6.AddrShards; sh++ {
			cur, err := shardCursor(sh)
			if err != nil {
				return err
			}
			if err := spill.ImportShardSorted(sh, cur); err != nil {
				return fmt.Errorf("core: loading %s: %w", name, err)
			}
		}
		return nil
	}
	for sh := 0; sh < ip6.AddrShards; sh++ {
		cur, err := shardCursor(sh)
		if err != nil {
			return err
		}
		for {
			a, ok, err := cur()
			if err != nil {
				return fmt.Errorf("core: loading %s: %w", name, err)
			}
			if !ok {
				break
			}
			set.AddToShard(sh, a)
		}
	}
	return nil
}

// journalChunk is how many journal records one replay chunk admits:
// resident footprint of a durable ingest is O(journalChunk), not
// O(candidate stream).
const journalChunk = 1 << 16

// ingestJournaled is the durable service's admission sweep: every feed's
// candidate stream is spooled to the on-disk rollback journal first (in
// the same deterministic feed-name-sorted sequence the resident path
// walks), then replayed in bounded chunks through the shared admission
// sweep. A source error discards the journal with nothing admitted — the
// same all-or-nothing contract the resident path keeps by routing
// first — and a crash mid-scan leaves only journal debris that Resume
// discards. Outputs are bit-identical to the resident path for any
// worker count: chunk replay preserves the global sequence order
// per shard, and every merged counter is a commutative sum.
func (s *Service) ingestJournaled(srcs []sources.NamedSource, day int, rec *ScanRecord) error {
	jpath := JournalPath(s.cfg.CheckpointDir)
	if err := os.MkdirAll(filepath.Dir(jpath), 0o755); err != nil {
		return fmt.Errorf("core: creating checkpoint parent: %w", err)
	}
	jw, err := ckpt.CreateJournal(jpath)
	if err != nil {
		return err
	}

	// Spool phase: pull every source to exhaustion into the journal.
	// Non-unicast candidates are dropped here (they never receive a
	// sequence number on any path), so replay admits records verbatim.
	buf := make([]ip6.Addr, ingestChunk)
	for fi, fs := range srcs {
		var jerr error
		err := drainSource(fs.Src, buf, func(seg []ip6.Addr) {
			if jerr != nil {
				return
			}
			for _, a := range seg {
				if !a.IsGlobalUnicast() {
					continue
				}
				if jerr = jw.Add(int32(fi), a); jerr != nil {
					return
				}
			}
		})
		if err == nil {
			err = jerr
		}
		if err != nil {
			jw.Discard()
			return err
		}
	}
	if err := jw.Finish(); err != nil {
		return err
	}

	// Replay phase: bounded chunks through the per-shard admission sweep.
	jr, err := ckpt.OpenJournal(jpath)
	if err != nil {
		return err
	}
	defer jr.Close()
	for seq, more := int32(0), true; more; {
		for n := 0; n < journalChunk; n++ {
			feed, a, ok, err := jr.Next()
			if err != nil {
				s.dropRouted()
				return err
			}
			if !ok {
				more = false
				break
			}
			sh := ip6.ShardOf(a)
			s.routeBuf[sh] = append(s.routeBuf[sh], routedInput{addr: a, feed: feed, seq: seq})
			seq++
		}
		s.admitRouted(srcs, day, rec)
	}
	jr.Close()
	return jr.Remove()
}

// readPrefixList loads a prefix table in file order, plus its members as
// a set; a prefix listed twice is corrupt.
func readPrefixList(snap *ckpt.Snapshot, name string) ([]ip6.Prefix, map[ip6.Prefix]struct{}, error) {
	f, br, n, err := openTable(snap, name, ip6.AddrBytes+1)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := make([]ip6.Prefix, 0, n)
	set := make(map[ip6.Prefix]struct{}, n)
	for i := 0; i < n; i++ {
		p, err := readPrefix(br)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %s: %v", ckpt.ErrCorrupt, name, err)
		}
		if _, dup := set[p]; dup {
			return nil, nil, fmt.Errorf("%w: %s lists %v twice", ckpt.ErrCorrupt, name, p)
		}
		set[p] = struct{}{}
		out = append(out, p)
	}
	return out, set, nil
}
