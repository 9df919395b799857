package core

// Checkpoint/restore: a crash-consistent on-disk image of full service
// state, so a multi-week timeline survives restarts. Service.Checkpoint
// stages every piece of cumulative state into a ckpt.Writer — address
// sets as .hl6 images streamed shard-sorted (resident shards are copied
// and sorted on the service's worker pool, a bounded window of
// ip6.ShardPipeline slots at a time, and written in shard order so the
// bytes never depend on the worker count; SpillSets merge their frozen runs without materializing
// anything), the active target store and APD history as small binary
// tables, and counters/records/snapshots as JSON — each a payload
// appended to the checkpoint's one segment, then commits atomically. Resume
// rebuilds a Service from the newest complete checkpoint; a timeline
// interrupted at day k (SIGKILL included) and resumed is byte-identical
// to an uninterrupted run for any worker count, FleetWorkers, memory
// budget and serve cadence (TestResumeMatchesUninterrupted).
//
// Service.payloads is the one payload table: every payload but
// state.json, once, in manifest file order (records, snapshots, active,
// the address sets with unresp.hl6 last, apd_history, pending64,
// seen64). A row is an address set, written as a .hl6 image or shard
// delta, or a write/read pair. Checkpoint and Resume both walk it; the
// order is part of the format (TestCheckpointManifestsMatchGolden).
// state.json stays outside because Resume reads it before NewService.
//
// Deliberately not persisted: lastMain (the wall-clock shard profile —
// outputs are pinned hand-out-order-invariant, so the resumed run's
// first scan just orders shards by size) and published serve
// snapshots (derived state; only the generation counter survives, via
// serve.Handle.RestoreGeneration, so numbering continues seamlessly).

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"

	"hitlist6/internal/apd"
	"hitlist6/internal/ckpt"
	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/sources"
)

// Checkpoint payload names: each names a section of the checkpoint's
// segment, not a file.
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

// ckptConfig is the configuration digest Resume verifies before loading
// anything: the knobs that shape service state. Worker counts,
// FleetWorkers, memory budget and batch size are deliberately absent —
// outputs are pinned invariant to them, so a resumed run may change them
// freely.
type ckptConfig struct {
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
}

// ckptState is state.json: the configuration digest (encoding/json
// writes the embedded fields first) plus the scalar state.
type ckptState struct {
	ckptConfig

	// Cursor and cumulative accounting.
	ScanIndex    int             `json:"scan_index"`
	InputTotal   int             `json:"input_total"`
	BlockedTotal int             `json:"blocked_total"`
	GFWTotal     int             `json:"gfw_total"`
	AliasedTotal int             `json:"aliased_total"`
	EvictedTotal int             `json:"evicted_total"`
	GFWDeployed  bool            `json:"gfw_deployed"`
	PerASInput   map[int]ASInput `json:"per_as_input,omitempty"`
	InputByFeed  map[string]int  `json:"input_by_feed,omitempty"`
	Aliased      []string        `json:"aliased_prefixes,omitempty"`
	SnapQueue    []int           `json:"snap_queue,omitempty"`
	ServeScans   int             `json:"serve_scans"`
	Generation   uint64          `json:"generation"`
}

// configState extracts the digest fields from a (normalized) Config.
func configState(cfg Config) ckptConfig {
	c := ckptConfig{
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
		c.Protocols = append(c.Protocols, int(p))
	}
	if cfg.TGAFeed != nil {
		c.TGAFeedName = cfg.TGAFeed.Name()
	}
	return c
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

// ckptPayload is one row of the payload table: an address set, or a
// payload with its own encoding when set is nil.
type ckptPayload struct {
	name  string
	set   ip6.SpillableSet
	write func(w *ckpt.Writer, name string) error
	read  func(snap *ckpt.Snapshot, name string) error
}

// payloads is the checkpoint payload table, in manifest file order. It
// is built per call: set rows appear as the state they mirror does (the
// GFW drop set after deployment, lastClean after the first scan, the
// unresponsive pool when retained), and they capture the set objects
// current at the call.
func (s *Service) payloads() []ckptPayload {
	out := []ckptPayload{
		{name: ckptRecordsFile,
			write: func(w *ckpt.Writer, name string) error {
				return writeJSONFile(w, name, s.records, int64(len(s.records)))
			},
			read: func(snap *ckpt.Snapshot, name string) error { return readJSONFile(snap, name, &s.records) }},
		{name: ckptSnapshotsFile, write: s.writeSnapshots, read: s.readSnapshots},
		{name: ckptActiveFile, write: s.writeActive, read: s.readActive},
		{name: ckptInputSeenFile, set: s.inputSeen},
		{name: ckptEverAnyFile, set: s.everRespAny},
	}
	for p := range s.everResp {
		out = append(out, ckptPayload{name: ckptEverRespFile(p), set: s.everResp[p]})
	}
	if s.gfwDeployed {
		out = append(out, ckptPayload{name: ckptGFWDropFile, set: s.gfwInputDrop})
	}
	out = append(out, ckptPayload{name: ckptPrevRespFile, set: s.prevRespAny})
	if s.lastClean != nil {
		for _, p := range s.cfg.Protocols {
			out = append(out, ckptPayload{name: ckptLastCleanFile(int(p)), set: s.lastClean[p]})
		}
	}
	inj, other, real := s.tracker.EvidenceSets()
	out = append(out,
		ckptPayload{name: ckptTrkInjFile, set: inj},
		ckptPayload{name: ckptTrkOtherFile, set: other},
		ckptPayload{name: ckptTrkRealFile, set: real})
	if s.cfg.RetainUnresponsive {
		out = append(out, ckptPayload{name: ckptUnrespFile, set: s.unresponsive})
	}
	return append(out,
		ckptPayload{name: ckptAPDFile, write: s.writeAPDHistory, read: s.readAPDHistory},
		ckptPayload{name: ckptPending64File,
			write: func(w *ckpt.Writer, name string) error { return writePrefixList(w, name, s.pendingAPD64) },
			read: func(snap *ckpt.Snapshot, name string) (err error) {
				s.pendingAPD64, _, err = readPrefixList(snap, name)
				return err
			}},
		// The /64s reload in file order, so the next checkpoint appends
		// to exactly the list this one wrote.
		ckptPayload{name: ckptSeen64File,
			write: func(w *ckpt.Writer, name string) error { return writePrefixList(w, name, s.seen64Order) },
			read: func(snap *ckpt.Snapshot, name string) (err error) {
				s.seen64Order, s.seen64, err = readPrefixList(snap, name)
				return err
			}})
}

// setMarks records every address-set row's current shard epochs: the
// baseline the next delta checkpoint diffs against.
func (s *Service) setMarks() map[string]*ckptMark {
	marks := make(map[string]*ckptMark)
	for _, pl := range s.payloads() {
		if pl.set != nil {
			marks[pl.name] = markOf(pl.set)
		}
	}
	return marks
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
	for _, pl := range s.payloads() {
		if pl.set == nil {
			if err := pl.write(w, pl.name); err != nil {
				return err
			}
			continue
		}
		mask := ^uint64(0)
		if delta {
			mask = dirtyMask(s.ckptMarks[pl.name], pl.set)
		}
		if err := s.writeAddrSet(w, pl.name, pl.set, mask, delta); err != nil {
			return err
		}
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
	s.ckptMarks = s.setMarks()
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
	st := ckptState{
		ckptConfig:   configState(s.cfg),
		ScanIndex:    s.scanIndex,
		InputTotal:   s.inputTotal,
		BlockedTotal: s.blockedTotal,
		GFWTotal:     s.gfwTotal,
		AliasedTotal: s.aliasedTotal,
		EvictedTotal: s.evictedTotal,
		GFWDeployed:  s.gfwDeployed,
		PerASInput:   make(map[int]ASInput, len(s.perASInput)),
		InputByFeed:  s.inputByFeed,
		SnapQueue:    s.snapQueue,
		ServeScans:   s.serveScans,
		Generation:   s.queryHandle.Generation(),
	}
	for asn, ai := range s.perASInput {
		st.PerASInput[asn] = *ai
	}
	for _, p := range s.aliased.Prefixes() {
		st.Aliased = append(st.Aliased, p.String())
	}
	return writeJSONFile(w, ckptStateFile, &st, 0)
}

// ckptSnapshot is one captured snapshot in snapshots.json, keyed by its
// requested day: sets as sorted address strings (the exact encoding
// golden comparisons use, so a JSON round trip is loss-free).
type ckptSnapshot struct {
	Day        int                            `json:"day"`
	Responsive map[netmodel.Protocol][]string `json:"responsive"`
	Any        []string                       `json:"responsive_any"`
	Aliased    []string                       `json:"aliased"`
}

// writeSnapshots stages snapshots.json.
func (s *Service) writeSnapshots(w *ckpt.Writer, name string) error {
	out := make(map[int]ckptSnapshot, len(s.snapshots))
	for want, snap := range s.snapshots {
		cs := ckptSnapshot{
			Day:        snap.Day,
			Responsive: make(map[netmodel.Protocol][]string, len(snap.Responsive)),
			Any:        addrStrings(snap.ResponsiveAny),
		}
		for p, set := range snap.Responsive {
			cs.Responsive[p] = addrStrings(set)
		}
		for _, p := range snap.Aliased {
			cs.Aliased = append(cs.Aliased, p.String())
		}
		out[want] = cs
	}
	return writeJSONFile(w, name, out, int64(len(out)))
}

func addrStrings(set ip6.Set) []string {
	out := make([]string, 0, len(set))
	for _, a := range set.Sorted() {
		out = append(out, a.String())
	}
	return out
}

// activeRecLen is one active.bin record: address, firstDay,
// lastSuccessDay.
const activeRecLen = ip6.AddrBytes + 8

// activeRec is one target-store entry as writeActive sorts it: the
// address as native words, so comparisons decode nothing.
type activeRec struct {
	hi, lo                   uint64
	firstDay, lastSuccessDay int32
}

// writeActive stages the target store: a per-shard count table, then
// each shard's (address, firstDay, lastSuccessDay) records sorted by
// address. Shards are collected and sorted on the worker pool and
// written in shard order.
func (s *Service) writeActive(w *ckpt.Writer, name string) error {
	return writePayload(w, name, int64(s.active.Len()), func(bw *bufio.Writer) error {
		var hdr [8 * ip6.AddrShards]byte
		for sh := 0; sh < ip6.AddrShards; sh++ {
			binary.LittleEndian.PutUint64(hdr[8*sh:], uint64(s.active.ShardLen(sh)))
		}
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		prepare := func(sh int, buf *[]activeRec) error {
			recs := slices.Grow((*buf)[:0], s.active.ShardLen(sh))
			s.active.WalkShard(sh, func(a ip6.Addr, st *targetState) bool {
				recs = append(recs, activeRec{a.Hi(), a.Lo(), int32(st.firstDay), int32(st.lastSuccessDay)})
				return true
			})
			slices.SortFunc(recs, func(x, y activeRec) int {
				if c := cmp.Compare(x.hi, y.hi); c != 0 {
					return c
				}
				return cmp.Compare(x.lo, y.lo)
			})
			*buf = recs
			return nil
		}
		return s.ckptActive.Run(s.workers, ^uint64(0), prepare, func(_ int, buf *[]activeRec) error {
			var rec [activeRecLen]byte
			for _, r := range *buf {
				binary.BigEndian.PutUint64(rec[0:], r.hi)
				binary.BigEndian.PutUint64(rec[8:], r.lo)
				binary.LittleEndian.PutUint32(rec[16:], uint32(r.firstDay))
				binary.LittleEndian.PutUint32(rec[20:], uint32(r.lastSuccessDay))
				if _, err := bw.Write(rec[:]); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// writeAPDHistory stages the detector's per-prefix response history.
func (s *Service) writeAPDHistory(w *ckpt.Writer, name string) error {
	entries := s.detector.ExportHistory()
	return writePayload(w, name, int64(len(entries)), func(bw *bufio.Writer) error {
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
		return nil
	})
}

// writePayload stages one payload: body writes its bytes through a
// buffered writer, count is the manifest's item count.
func writePayload(w *ckpt.Writer, name string, count int64, body func(bw *bufio.Writer) error) error {
	f, err := w.Create(name)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 64*1024)
	if err := body(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	f.SetCount(count)
	return f.Close()
}

// writeJSONFile stages one JSON payload.
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
// shard-sorted order. Resident shards are copied and sorted on the
// worker pool, a bounded window of them at a time, and written in shard
// order; SpillSet shards merge their frozen runs straight off disk one
// after another (freezing appends to the run file all shards share).
// Only the shards selected by mask are written; the others get a zero
// count. With delta set the payload records mask as its DeltaShards
// bitmap, and readers resolve the unwritten shards through the parent
// chain.
func (s *Service) writeAddrSet(w *ckpt.Writer, name string, set ip6.SpillableSet, mask uint64, delta bool) error {
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
	err = hlfile.WriteSharded(f, &counts, func(put func(int, []ip6.Addr) error) error {
		if spill, ok := set.(*ip6.SpillSet); ok {
			return writeSpilledShards(spill, mask, put)
		}
		prepare := func(sh int, buf *[]ip6.Addr) error {
			addrs := slices.Grow((*buf)[:0], int(counts[sh]))
			set.WalkShard(sh, func(a ip6.Addr) bool {
				addrs = append(addrs, a)
				return true
			})
			ip6.SortAddrs(addrs)
			*buf = addrs
			return nil
		}
		return s.ckptShards.Run(s.workers, mask, prepare, func(sh int, buf *[]ip6.Addr) error {
			return put(sh, *buf)
		})
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

// writeSpilledShards streams the masked shards of a SpillSet to put in
// runs of up to spillChunk addresses.
func writeSpilledShards(spill *ip6.SpillSet, mask uint64, put func(int, []ip6.Addr) error) error {
	const spillChunk = 256
	chunk := make([]ip6.Addr, 0, spillChunk)
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if mask&(1<<uint(sh)) == 0 {
			continue
		}
		err := spill.WalkShardSorted(sh, func(a ip6.Addr) error {
			if len(chunk) == spillChunk {
				if err := put(sh, chunk); err != nil {
					return err
				}
				chunk = chunk[:0]
			}
			chunk = append(chunk, a)
			return nil
		})
		if err == nil {
			err = put(sh, chunk)
		}
		if err != nil {
			return err
		}
		chunk = chunk[:0]
	}
	return nil
}

// writePrefixList stages prefixes in the given order (17 bytes each:
// masked address + length).
func writePrefixList(w *ckpt.Writer, name string, prefixes []ip6.Prefix) error {
	return writePayload(w, name, int64(len(prefixes)), func(bw *bufio.Writer) error {
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
		return nil
	})
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
// entries) and reads its count, refusing one the payload's byte size
// cannot hold at minEntry bytes per entry: a damaged header never sizes
// an allocation. The caller closes the section.
func openTable(snap *ckpt.Snapshot, name string, minEntry int64) (*ckpt.Section, *bufio.Reader, int, error) {
	sec, err := snap.Open(name)
	if err != nil {
		return nil, nil, 0, err
	}
	br := bufio.NewReaderSize(sec, 64*1024)
	var n4 [4]byte
	if _, err := io.ReadFull(br, n4[:]); err != nil {
		sec.Close()
		return nil, nil, 0, fmt.Errorf("%w: %s header: %v", ckpt.ErrCorrupt, name, err)
	}
	n := int64(binary.LittleEndian.Uint32(n4[:]))
	if n > (sec.Size()-int64(len(n4)))/minEntry {
		sec.Close()
		return nil, nil, 0, fmt.Errorf("%w: %s claims %d entries in %d bytes", ckpt.ErrCorrupt, name, n, sec.Size())
	}
	return sec, br, int(n), nil
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
// in full on the resumed service. Validation failures (truncated payloads,
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
	if now := configState(s.cfg); !reflect.DeepEqual(now, st.ckptConfig) {
		s.Close()
		return nil, fmt.Errorf("%w: configuration drift: checkpoint was taken with different state-shaping settings (have %+v, checkpoint %+v)", ckpt.ErrCorrupt, now, st.ckptConfig)
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
		s.ckptMarks = s.setMarks()
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

// restoreFrom loads every payload into the freshly built service: the
// scalar state from st, then each row of the payload table.
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
		s.perASInput[asn] = &ai
	}
	maps.Copy(s.inputByFeed, st.InputByFeed)
	for _, ps := range st.Aliased {
		p, err := ip6.ParsePrefix(ps)
		if err != nil {
			return fmt.Errorf("%w: aliased prefix %q", ckpt.ErrCorrupt, ps)
		}
		s.aliased.Add(p)
	}
	s.aliased.Freeze()
	s.snapQueue = append([]int(nil), st.SnapQueue...)

	// The sets that exist for only part of a run get fresh objects before
	// the table is built, so its rows name them.
	if st.GFWDeployed {
		s.gfwDeployed = true
		s.gfwInputDrop = s.newCumulativeSet()
	}
	if snap.HasInChain(ckptLastCleanFile(int(s.cfg.Protocols[0]))) {
		s.lastClean = make(map[netmodel.Protocol]*ip6.ShardedSet, len(s.cfg.Protocols))
		for _, p := range s.cfg.Protocols {
			s.lastClean[p] = ip6.NewShardedSet()
		}
	}
	for _, pl := range s.payloads() {
		var err error
		if pl.set != nil {
			err = loadAddrSet(snap, pl.name, pl.set)
		} else {
			err = pl.read(snap, pl.name)
		}
		if err != nil {
			return err
		}
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
	sec, err := snap.Open(name)
	if err != nil {
		return err
	}
	defer sec.Close()
	data := make([]byte, sec.Size())
	if _, err := io.ReadFull(sec, data); err != nil {
		return fmt.Errorf("core: reading %s: %w", name, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w: %s: %v", ckpt.ErrCorrupt, name, err)
	}
	return nil
}

// readSnapshots rebuilds the captured snapshots.
func (s *Service) readSnapshots(snap *ckpt.Snapshot, name string) error {
	var raw map[int]ckptSnapshot
	if err := readJSONFile(snap, name, &raw); err != nil {
		return err
	}
	for want, cs := range raw {
		out := &Snapshot{Day: cs.Day, Responsive: make(map[netmodel.Protocol]ip6.Set, len(cs.Responsive))}
		for p, addrs := range cs.Responsive {
			if p >= netmodel.NumProtocols {
				return fmt.Errorf("%w: snapshot protocol key %d", ckpt.ErrCorrupt, p)
			}
			set, err := parseAddrSet(addrs)
			if err != nil {
				return err
			}
			out.Responsive[p] = set
		}
		var err error
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

// readActive rebuilds the sharded target store. It fails closed on a
// table writeActive cannot have written: the header's counts must
// account for the payload's bytes exactly, and every shard's records must
// belong to that shard in strictly ascending order — the scan engine
// refuses a mis-sharded scan set, so a bad record must not get that far.
func (s *Service) readActive(snap *ckpt.Snapshot, name string) error {
	sec, err := snap.Open(name)
	if err != nil {
		return err
	}
	defer sec.Close()
	br := bufio.NewReaderSize(sec, 64*1024)
	var hdr [8 * ip6.AddrShards]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: %s header: %v", ckpt.ErrCorrupt, name, err)
	}
	body := uint64(sec.Size()) - uint64(len(hdr))
	var total uint64
	for sh := 0; sh < ip6.AddrShards; sh++ {
		n := binary.LittleEndian.Uint64(hdr[8*sh:])
		if n > body/activeRecLen {
			return fmt.Errorf("%w: %s claims %d records for shard %d in %d bytes", ckpt.ErrCorrupt, name, n, sh, sec.Size())
		}
		total += n
	}
	if total*activeRecLen != body {
		return fmt.Errorf("%w: %s counts %d records in %d bytes", ckpt.ErrCorrupt, name, total, sec.Size())
	}
	var rec [activeRecLen]byte
	for sh := 0; sh < ip6.AddrShards; sh++ {
		n := binary.LittleEndian.Uint64(hdr[8*sh:])
		var prev ip6.Addr
		for i := uint64(0); i < n; i++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return fmt.Errorf("%w: %s truncated: %v", ckpt.ErrCorrupt, name, err)
			}
			a := ip6.AddrFrom16([ip6.AddrBytes]byte(rec[:ip6.AddrBytes]))
			if ip6.ShardOf(a) != sh {
				return fmt.Errorf("%w: %s lists %v under shard %d", ckpt.ErrCorrupt, name, a, sh)
			}
			if i > 0 && a.Compare(prev) <= 0 {
				return fmt.Errorf("%w: %s shard %d is not strictly ascending at %v", ckpt.ErrCorrupt, name, sh, a)
			}
			prev = a
			s.active.PutInShard(sh, a, &targetState{
				firstDay:       int(int32(binary.LittleEndian.Uint32(rec[16:]))),
				lastSuccessDay: int(int32(binary.LittleEndian.Uint32(rec[20:]))),
			})
		}
	}
	return nil
}

// readAPDHistory rebuilds the detector's response history in file order.
func (s *Service) readAPDHistory(snap *ckpt.Snapshot, name string) error {
	// An entry is at least a prefix and a 2-byte round count.
	sec, br, n, err := openTable(snap, name, ip6.AddrBytes+1+2)
	if err != nil {
		return err
	}
	defer sec.Close()
	entries := make([]apd.HistoryEntry, 0, n)
	var u2 [2]byte
	for i := 0; i < n; i++ {
		p, err := readPrefix(br)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ckpt.ErrCorrupt, name, err)
		}
		if _, err := io.ReadFull(br, u2[:]); err != nil {
			return fmt.Errorf("%w: %s truncated: %v", ckpt.ErrCorrupt, name, err)
		}
		counts := make([]uint16, binary.LittleEndian.Uint16(u2[:]))
		for j := range counts {
			if _, err := io.ReadFull(br, u2[:]); err != nil {
				return fmt.Errorf("%w: %s truncated: %v", ckpt.ErrCorrupt, name, err)
			}
			counts[j] = binary.LittleEndian.Uint16(u2[:])
		}
		entries = append(entries, apd.HistoryEntry{Prefix: p, Counts: counts})
	}
	if err := s.detector.ImportHistory(entries); err != nil {
		return fmt.Errorf("%w: %s: %v", ckpt.ErrCorrupt, name, err)
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
	var secs []*ckpt.Section
	defer func() {
		for _, sec := range secs {
			sec.Close()
		}
	}()
	spill, _ := set.(*ip6.SpillSet)
	for sh := 0; sh < ip6.AddrShards; sh++ {
		lvl := snap.FindShard(name, sh)
		if lvl == nil {
			return fmt.Errorf("%w: %s shard %d unresolved in delta chain", ckpt.ErrCorrupt, name, sh)
		}
		rdr, ok := readers[lvl.Dir]
		if !ok {
			sec, err := lvl.Open(name)
			if err != nil {
				return err
			}
			secs = append(secs, sec)
			if rdr, err = hlfile.NewReader(sec, sec.Size()); err != nil {
				return fmt.Errorf("core: opening %s in %s: %w", name, lvl.Dir, err)
			}
			readers[lvl.Dir] = rdr
		}
		cur := checkedCursor(name, sh, rdr.ShardCursor(sh))
		if spill != nil {
			if err := spill.ImportShardSorted(sh, cur); err != nil {
				return fmt.Errorf("core: loading %s: %w", name, err)
			}
			continue
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

// checkedCursor wraps a payload shard's cursor so that it fails closed,
// with ckpt.ErrCorrupt, on a run writeAddrSet cannot have written: every
// address must belong to shard sh, in strictly ascending order. A
// resident set would file a stray address where Has never looks, and a
// spilled shard imports the run as-is, so binary search would misread an
// unsorted one.
func checkedCursor(name string, sh int, cur func() (ip6.Addr, bool, error)) func() (ip6.Addr, bool, error) {
	var prev ip6.Addr
	first := true
	return func() (ip6.Addr, bool, error) {
		a, ok, err := cur()
		if err != nil || !ok {
			return a, ok, err
		}
		if ip6.ShardOf(a) != sh {
			return a, false, fmt.Errorf("%w: %s lists %v under shard %d", ckpt.ErrCorrupt, name, a, sh)
		}
		if !first && a.Compare(prev) <= 0 {
			return a, false, fmt.Errorf("%w: %s shard %d is not strictly ascending at %v", ckpt.ErrCorrupt, name, sh, a)
		}
		prev, first = a, false
		return a, true, nil
	}
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
	sec, br, n, err := openTable(snap, name, ip6.AddrBytes+1)
	if err != nil {
		return nil, nil, err
	}
	defer sec.Close()
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
