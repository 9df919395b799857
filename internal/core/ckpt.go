package core

// Checkpoint/restore: a crash-consistent on-disk image of full service
// state, so a multi-week timeline survives restarts. Service.Checkpoint
// stages every piece of cumulative state into a ckpt.Writer — address
// sets as .hl6 images written in shard order (a resident set's folded
// columns go in as they are, with no copy and no sort; a spilled set's
// shards merge their frozen runs without materializing anything), the
// active target store and APD history as small binary tables, and
// counters/records/snapshots as JSON — each a payload appended to the
// checkpoint's one segment, then commits atomically. Resume
// rebuilds a Service from the newest complete checkpoint; a timeline
// interrupted at day k (SIGKILL included) and resumed is byte-identical
// to an uninterrupted run for any worker count, FleetWorkers, memory
// budget and serve cadence (TestResumeMatchesUninterrupted).
//
// Service.payloads is the one payload table: every payload but
// state.json, once, in manifest file order (records, snapshots, active,
// the address sets with unresp.hl6 last, apd_history, pending64). A row
// is a cumulative address set, written as a .hl6 image, or a write/read
// pair — the last scan's responder columns (prevresp, lastclean_*) are
// such pairs, .hl6 images too. Checkpoint and Resume both walk it; the
// order is part of the format
// (TestCheckpointManifestsMatchGolden). state.json stays outside because
// Resume reads it before NewService.
//
// A delta checkpoint appends to its parent what the scans since added:
// an address set whose add log is complete writes the logged addresses
// as a .hl6 image, or nothing at all when the log is empty,
// records.json its new suffix, and apd_history.bin the rows recorded
// since, each with its row index. Every other payload — the responder
// columns, which a scan replaces wholesale, among them — and every set
// that outgrew its log, is written in full, exactly as a full checkpoint
// writes it. Resume resolves each payload through the chain
// (ckpt.Snapshot.Levels, where a delta level without the payload holds
// no change to it) and applies its levels oldest first.
//
// Deliberately not persisted: which /64s alias detection has seen (the
// APD history, pending64 and bgp64_input say it; see trackSlash64), the
// GFW filter list, before or after deployment (trk_injected.hl6 minus
// everrespany.hl6; see Service.InjectedOnly: the deployment purge
// derives it once and inputSeen keeps its addresses out afterwards, so
// only gfw_deployed in state.json says the filter ran), lastMain (the
// previous main scan's engine stats, wall-clock accounting that
// LastFleet reports and no output depends on) and published serve
// snapshots (derived state; only the generation counter survives, via
// serve.Handle.RestoreGeneration, so numbering continues seamlessly).

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
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
	ckptPrevRespFile  = "prevresp.hl6"
	ckptTrkInjFile    = "trk_injected.hl6"
	ckptUnrespFile    = "unresp.hl6"
	ckptAPDFile       = "apd_history.bin"
	ckptPending64File = "pending64.bin"
)

func ckptEverRespFile(p int) string  { return fmt.Sprintf("everresp_%d.hl6", p) }
func ckptLastCleanFile(p int) string { return fmt.Sprintf("lastclean_%d.hl6", p) }

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
	BGP64Input   []string        `json:"bgp64_input,omitempty"` // BGP-level /64 candidates input queued
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

// ckptBase is the checkpoint this process last committed into dir, or
// resumed from its head: what the next delta checkpoint appends to. It
// holds how many records and which APD round that checkpoint wrote; the
// sets keep their own add logs.
type ckptBase struct {
	dir         string
	scan, depth int
	records     int
	apdRound    uint32
}

// ckptPayload is one row of the payload table: an address set, or a
// payload with its own encoding when set is nil. write gets the base of
// a delta checkpoint (nil for a full one); read gets the payload's chain
// levels, oldest first.
type ckptPayload struct {
	name  string
	set   *ip6.SpillSet
	write func(w *ckpt.Writer, name string, base *ckptBase) error
	read  func(levels []*ckpt.Snapshot, name string) error
}

// payloads is the checkpoint payload table, in manifest file order. It
// is built per call: set rows appear as the state they mirror does
// (lastClean after the first scan, the unresponsive pool when retained),
// and they capture the set objects current at the call.
func (s *Service) payloads() []ckptPayload {
	out := []ckptPayload{
		{name: ckptRecordsFile, write: s.writeRecords, read: s.readRecords},
		{name: ckptSnapshotsFile, write: s.writeSnapshots, read: whole(s.readSnapshots)},
		{name: ckptActiveFile, write: s.writeActive, read: whole(s.readActive)},
		{name: ckptInputSeenFile, set: s.inputSeen},
		{name: ckptEverAnyFile, set: s.everRespAny},
	}
	for p := range s.everResp {
		out = append(out, ckptPayload{name: ckptEverRespFile(p), set: s.everResp[p]})
	}
	out = append(out, columnsPayload(ckptPrevRespFile, &s.prevRespAny))
	if s.scanIndex > 0 {
		for _, p := range s.cfg.Protocols {
			out = append(out, columnsPayload(ckptLastCleanFile(int(p)), &s.lastClean[p]))
		}
	}
	out = append(out, ckptPayload{name: ckptTrkInjFile, set: s.tracker.EvidenceSet()})
	if s.cfg.RetainUnresponsive {
		out = append(out, ckptPayload{name: ckptUnrespFile, set: s.unresponsive})
	}
	return append(out,
		ckptPayload{name: ckptAPDFile, write: s.writeAPDHistory, read: s.readAPDHistory},
		ckptPayload{name: ckptPending64File,
			write: func(w *ckpt.Writer, name string, _ *ckptBase) error {
				return writePrefixList(w, name, s.pendingAPD64)
			},
			read: whole(func(lvl *ckpt.Snapshot, name string) (err error) {
				s.pendingAPD64, s.pending64, err = readPrefixList(lvl, name)
				return err
			})})
}

// setBase makes the checkpoint just committed into dir (or resumed from
// its head) the base of the next delta: it records the table lengths
// that checkpoint holds and starts every set's add log empty. Only this
// starts a log; every set object lives for the whole run, so each one's
// log covers everything added since.
func (s *Service) setBase(dir string, scan, depth int) {
	s.ckptBase = &ckptBase{
		dir:      filepath.Clean(dir),
		scan:     scan,
		depth:    depth,
		records:  len(s.records),
		apdRound: s.detector.Round(),
	}
	for _, pl := range s.payloads() {
		if pl.set != nil {
			pl.set.StartLog()
		}
	}
}

// Checkpoint writes a crash-consistent snapshot of the service's full
// state to dir (atomically replacing any previous checkpoint there).
// The service stays usable afterwards. A service halted by a half-applied
// scan (see RunScan) refuses, leaving dir as it was.
//
// Successive checkpoints into the same directory are written as deltas:
// the append-only payloads carry only what the scans since the previous
// checkpoint added, the superseded head is parked as the new head's
// parent, and Resume resolves payloads through the chain. Every
// CheckpointFullEvery-th checkpoint (and any checkpoint without a usable
// parent — first ever, different directory, resumed from a fallback) is
// a full rewrite that collapses the chain.
func (s *Service) Checkpoint(dir string) (err error) {
	if s.halted != nil {
		return fmt.Errorf("core: checkpoint of a service halted by a half-applied scan: %w", s.halted)
	}
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
	// namespace, and a foreign directory holds nothing to append to.
	base := s.ckptBase
	if base != nil && (base.dir != filepath.Clean(dir) || s.scanIndex <= base.scan || base.depth+1 >= fullEvery) {
		base = nil
	}
	var w *ckpt.Writer
	if base != nil {
		if w, err = ckpt.BeginDelta(dir); err != nil {
			// Head unreadable (wiped, damaged): fall back to a full
			// rewrite rather than failing the checkpoint.
			base, w = nil, nil
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
			err = pl.write(w, pl.name, base)
		} else {
			err = s.writeAddrSet(w, pl.name, pl.set, base != nil && pl.set.LogComplete())
		}
		if err != nil {
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
	// Only a committed head becomes the base — an aborted write leaves
	// the old head valid and the add logs growing, so the next delta
	// carries the additions of both.
	depth := 0
	if base != nil {
		depth = base.depth + 1
	}
	s.setBase(dir, s.scanIndex, depth)
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
	for _, c := range s.bgpCands {
		if s.bgp64[c.prefix] {
			st.BGP64Input = append(st.BGP64Input, c.prefix.String())
		}
	}
	return writeJSONFile(w, ckptStateFile, &st, 0, false)
}

// writeRecords stages records.json: every record, or in a delta the
// records since the base.
func (s *Service) writeRecords(w *ckpt.Writer, name string, base *ckptBase) error {
	if base != nil {
		recs := s.records[base.records:]
		return writeJSONFile(w, name, recs, int64(len(recs)), true)
	}
	return writeJSONFile(w, name, s.records, int64(len(s.records)), false)
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
func (s *Service) writeSnapshots(w *ckpt.Writer, name string, _ *ckptBase) error {
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
	return writeJSONFile(w, name, out, int64(len(out)), false)
}

// addrStrings renders set in ascending address order.
func addrStrings(set *ip6.SortedShardSet) []string {
	out := make([]string, 0, set.Len())
	for _, a := range set.Sorted() {
		out = append(out, a.String())
	}
	return out
}

// activeRecLen is one active.bin record: address, firstDay,
// lastSuccessDay.
const activeRecLen = ip6.AddrBytes + 8

// writeActive stages the target store: a per-shard count table, then
// each shard's (address, firstDay, lastSuccessDay) records, which the
// store already keeps in address order, written in shard order.
func (s *Service) writeActive(w *ckpt.Writer, name string, _ *ckptBase) error {
	return writePayload(w, name, int64(s.active.len()), false, func(bw *bufio.Writer) error {
		var hdr [8 * ip6.AddrShards]byte
		for sh, addrs := range s.active.addrs {
			binary.LittleEndian.PutUint64(hdr[8*sh:], uint64(len(addrs)))
		}
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		var rec [activeRecLen]byte
		for sh, addrs := range s.active.addrs {
			for i, a := range addrs {
				st := &s.active.state[sh][i]
				binary.BigEndian.PutUint64(rec[0:], a.Hi())
				binary.BigEndian.PutUint64(rec[8:], a.Lo())
				binary.LittleEndian.PutUint32(rec[16:], uint32(int32(st.firstDay)))
				binary.LittleEndian.PutUint32(rec[20:], uint32(int32(st.lastSuccessDay)))
				if _, err := bw.Write(rec[:]); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// writeAPDHistory stages the detector's per-prefix response history: a
// 4-byte row count, then each row's prefix, count of rounds and the
// rounds' bitmaps. A delta writes the rows recorded since the base, each
// led by its 4-byte row index.
func (s *Service) writeAPDHistory(w *ckpt.Writer, name string, base *ckptBase) error {
	var entries []apd.HistoryEntry
	if base != nil {
		entries = s.detector.ExportRecorded(base.apdRound)
	} else {
		entries = s.detector.ExportHistory()
	}
	return writePayload(w, name, int64(len(entries)), base != nil, func(bw *bufio.Writer) error {
		var n4 [4]byte
		binary.LittleEndian.PutUint32(n4[:], uint32(len(entries)))
		if _, err := bw.Write(n4[:]); err != nil {
			return err
		}
		for _, e := range entries {
			buf := bw.AvailableBuffer()
			if base != nil {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Row))
			}
			buf = appendPrefix(buf, e.Prefix)
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

// createPayload starts payload name, marked Append when appendOnly.
func createPayload(w *ckpt.Writer, name string, appendOnly bool) (*ckpt.File, error) {
	f, err := w.Create(name)
	if err == nil && appendOnly {
		f.SetAppend()
	}
	return f, err
}

// writePayload stages one payload: body writes its bytes through a
// buffered writer, count is the manifest's item count.
func writePayload(w *ckpt.Writer, name string, count int64, appendOnly bool, body func(bw *bufio.Writer) error) error {
	f, err := createPayload(w, name, appendOnly)
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
func writeJSONFile(w *ckpt.Writer, name string, v any, count int64, appendOnly bool) error {
	f, err := createPayload(w, name, appendOnly)
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

// writeAddrSet stages a cumulative set as a .hl6 image in shard order:
// the whole set, or with appendLog only the addresses its add log holds,
// marked Append, and no payload at all when the log is empty. A resident
// shard with no pending Δ goes to the writer as spans of its column; any
// other shard streams its source (the column or the runs merged off
// disk, and the Δ), and a log its set's LogSource, each pulled chunk
// handed to the writer as it is.
func (s *Service) writeAddrSet(w *ckpt.Writer, name string, set *ip6.SpillSet, appendLog bool) error {
	var counts [ip6.AddrShards]uint64
	for sh := range counts {
		if appendLog {
			counts[sh] = uint64(set.LogLen(sh))
		} else {
			counts[sh] = uint64(set.ShardLen(sh))
		}
	}
	if appendLog && counts == [ip6.AddrShards]uint64{} {
		return nil
	}
	return writeHL6(w, name, appendLog, &counts, func(put func(int, []ip6.Addr) error) error {
		buf := make([]ip6.Addr, min(slices.Max(counts[:]), putChunk))
		for sh := 0; sh < ip6.AddrShards; sh++ {
			if counts[sh] == 0 {
				continue
			}
			var src ip6.Source
			switch col, whole := set.Column(sh); {
			case appendLog:
				src = set.LogSource(sh)
			case whole:
				src = ip6.NewSliceSource(col)
			default:
				src = set.ShardSource(sh)
			}
			if err := ip6.Drain(src, buf, func(c []ip6.Addr) error { return put(sh, c) }); err != nil {
				return err
			}
		}
		return nil
	})
}

// putChunk is how many addresses writeAddrSet pulls and puts at a time
// (64 KiB).
const putChunk = 4096

// writeHL6 stages a .hl6 payload of counts[sh] addresses per shard,
// which body puts in shard order (hlfile.WriteSharded), marked Append
// when appendOnly.
func writeHL6(w *ckpt.Writer, name string, appendOnly bool, counts *[ip6.AddrShards]uint64, body func(put func(int, []ip6.Addr) error) error) error {
	f, err := createPayload(w, name, appendOnly)
	if err != nil {
		return err
	}
	if err := hlfile.WriteSharded(f, counts, body); err != nil {
		return fmt.Errorf("core: writing %s: %w", name, err)
	}
	total := int64(0)
	for _, n := range counts {
		total += int64(n)
	}
	f.SetCount(total)
	return f.Close()
}

// columnsPayload is the payload row of a per-scan responder set: written
// full from its columns as a .hl6 image, and read back into fresh
// columns, each shard strictly ascending and its own. A scan replaces
// the columns wholesale, so no level ever appends to one.
func columnsPayload(name string, cols *respColumns) ckptPayload {
	return ckptPayload{name: name,
		write: func(w *ckpt.Writer, name string, _ *ckptBase) error {
			var counts [ip6.AddrShards]uint64
			for sh, col := range cols {
				counts[sh] = uint64(len(col))
			}
			return writeHL6(w, name, false, &counts, func(put func(int, []ip6.Addr) error) error {
				for sh, col := range cols {
					if err := put(sh, col); err != nil {
						return err
					}
				}
				return nil
			})
		},
		read: whole(func(lvl *ckpt.Snapshot, name string) error {
			sec, err := lvl.Open(name)
			if err != nil {
				return err
			}
			defer sec.Close()
			r, err := hlfile.NewReader(sec, sec.Size())
			if err != nil {
				return fmt.Errorf("core: opening %s in %s: %w", name, lvl.Dir, err)
			}
			for sh := range cols {
				col, err := ip6.AppendAll(make([]ip6.Addr, 0, r.ShardLen(sh)), checked(name, sh, r))
				if err != nil {
					return fmt.Errorf("core: loading %s: %w", name, err)
				}
				cols[sh] = col
			}
			return nil
		})}
}

// writePrefixList stages prefixes in the given order (a 4-byte count,
// then 17 bytes each: masked address + length).
func writePrefixList(w *ckpt.Writer, name string, prefixes []ip6.Prefix) error {
	return writePayload(w, name, int64(len(prefixes)), false, func(bw *bufio.Writer) error {
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

// openTable opens one level of a binary table payload (a 4-byte entry
// count, then the entries) and reads its count, refusing one the
// payload's byte size cannot hold at minEntry bytes per entry: a damaged
// header never sizes an allocation. The caller closes the section.
func openTable(lvl *ckpt.Snapshot, name string, minEntry int64) (*ckpt.Section, *bufio.Reader, int, error) {
	sec, err := lvl.Open(name)
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
// fully verified: every payload is loaded from its newest full copy plus
// the append levels above it. cfg must agree with the checkpointed
// configuration on every state-shaping knob; worker count, FleetWorkers,
// memory budget and serve attachment may differ freely — outputs are
// pinned invariant to them. A crash mid-scan leaves nothing to clean up:
// ingest holds the day's candidates in memory only, so the interrupted
// scan re-runs in full on the resumed service. Validation failures
// (truncated payloads, CRC mismatches, missing or damaged chain parents,
// config drift) return an error with no service constructed — restore
// never half-loads.
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
	levels, err := snap.Levels(ckptStateFile)
	if err == nil {
		err = whole(func(lvl *ckpt.Snapshot, name string) error { return readJSONFile(lvl, name, &st) })(levels, ckptStateFile)
	}
	if err != nil {
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
	// name), the loaded state becomes the delta base: the next
	// Checkpoint into dir can chain onto this head. A fallback resolve
	// leaves no base, so the next checkpoint is a full rewrite — correct
	// in every crash window.
	if filepath.Clean(resolved) == filepath.Clean(dir) {
		s.setBase(dir, snap.Manifest.ScanIndex, snap.Manifest.Depth)
	}
	return s, nil
}

// restoreFrom loads every payload into the freshly built service: the
// scalar state from st, then each row of the payload table.
func (s *Service) restoreFrom(snap *ckpt.Snapshot, st *ckptState) error {
	s.scanIndex = st.ScanIndex
	s.inputTotal = st.InputTotal
	s.blockedTotal = st.BlockedTotal
	s.gfwTotal = st.GFWTotal
	s.gfwDeployed = st.GFWDeployed
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
	for _, ps := range st.BGP64Input {
		p, err := ip6.ParsePrefix(ps)
		if _, bgp := s.bgp64[p]; err != nil || !bgp {
			return fmt.Errorf("%w: %q is not a BGP-level /64 candidate", ckpt.ErrCorrupt, ps)
		}
		s.bgp64[p] = true
	}

	for _, pl := range s.payloads() {
		levels, err := snap.Levels(pl.name)
		if err == nil && pl.set != nil {
			err = loadAddrSet(levels, pl.name, pl.set)
		} else if err == nil {
			err = pl.read(levels, pl.name)
		}
		if err != nil {
			return err
		}
	}
	if len(s.records) != s.scanIndex {
		return fmt.Errorf("%w: %s holds %d records, state.json counts %d scans", ckpt.ErrCorrupt, ckptRecordsFile, len(s.records), s.scanIndex)
	}
	if s.spill != nil {
		if err := s.spill.err(); err != nil {
			return fmt.Errorf("core: resume spill state: %w", err)
		}
	}
	return nil
}

// whole adapts the reader of a payload that is only ever written full to
// the chain-levels signature: more than one level means the head marks
// it Append, which no writer does.
func whole(read func(lvl *ckpt.Snapshot, name string) error) func(levels []*ckpt.Snapshot, name string) error {
	return func(levels []*ckpt.Snapshot, name string) error {
		if len(levels) != 1 {
			return fmt.Errorf("%w: %s is written full, but the head appends to it", ckpt.ErrCorrupt, name)
		}
		return read(levels[0], name)
	}
}

// readRecords loads records.json: the full list, then each append
// level's records after it.
func (s *Service) readRecords(levels []*ckpt.Snapshot, name string) error {
	for _, lvl := range levels {
		var recs []*ScanRecord
		if err := readJSONFile(lvl, name, &recs); err != nil {
			return err
		}
		s.records = append(s.records, recs...)
	}
	return nil
}

// readJSONFile parses one level of a JSON payload.
func readJSONFile(lvl *ckpt.Snapshot, name string, v any) error {
	sec, err := lvl.Open(name)
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
func (s *Service) readSnapshots(lvl *ckpt.Snapshot, name string) error {
	var raw map[int]ckptSnapshot
	if err := readJSONFile(lvl, name, &raw); err != nil {
		return err
	}
	for want, cs := range raw {
		out := &Snapshot{Day: cs.Day, Responsive: make(map[netmodel.Protocol]*ip6.SortedShardSet, len(cs.Responsive))}
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

// parseAddrSet routes a snapshot list, which writeSnapshots writes
// strictly ascending, into shard columns; any other list is corrupt.
func parseAddrSet(addrs []string) (*ip6.SortedShardSet, error) {
	var shards [ip6.AddrShards][]ip6.Addr
	var prev ip6.Addr
	for i, as := range addrs {
		a, err := ip6.ParseAddr(as)
		if err != nil {
			return nil, fmt.Errorf("%w: snapshot address %q", ckpt.ErrCorrupt, as)
		}
		if i > 0 && !prev.Less(a) {
			return nil, fmt.Errorf("%w: snapshot address %q not above %q", ckpt.ErrCorrupt, as, addrs[i-1])
		}
		prev = a
		sh := ip6.ShardOf(a)
		shards[sh] = append(shards[sh], a)
	}
	return ip6.SortedFromShards(shards), nil
}

// readActive rebuilds the target store, appending each shard's records
// to its table in file order. It fails closed on a table writeActive
// cannot have written: the header's counts must account for the
// payload's bytes exactly, and every shard's records must belong to that
// shard in strictly ascending order: the store keeps that order and the
// scan's digest relies on it, and the scan engine refuses a mis-sharded
// scan set, so a bad record must not get that far.
func (s *Service) readActive(lvl *ckpt.Snapshot, name string) error {
	sec, err := lvl.Open(name)
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
		s.active.addrs[sh] = make([]ip6.Addr, 0, n)
		s.active.state[sh] = make([]targetState, 0, n)
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
			s.active.addrs[sh] = append(s.active.addrs[sh], a)
			s.active.state[sh] = append(s.active.state[sh], targetState{
				firstDay:       int(int32(binary.LittleEndian.Uint32(rec[16:]))),
				lastSuccessDay: int(int32(binary.LittleEndian.Uint32(rec[20:]))),
			})
		}
	}
	return nil
}

// readAPDHistory rebuilds the detector's response history: the full
// level in file order, then each append level's rows over it. An append
// row whose index skips ahead or names a different prefix than the row
// it replaces is ckpt.ErrCorrupt.
func (s *Service) readAPDHistory(levels []*ckpt.Snapshot, name string) error {
	for i, lvl := range levels {
		entries, err := readAPDLevel(lvl, name, i > 0)
		if err != nil {
			return err
		}
		if i == 0 {
			err = s.detector.ImportHistory(entries)
		} else {
			err = s.detector.ApplyHistory(entries)
		}
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ckpt.ErrCorrupt, name, err)
		}
	}
	return nil
}

// readAPDLevel reads one level of apd_history.bin; withRow says its rows
// are led by their row index (an append level).
func readAPDLevel(lvl *ckpt.Snapshot, name string, withRow bool) ([]apd.HistoryEntry, error) {
	// An entry is at least a prefix and a 2-byte round count.
	minEntry := int64(ip6.AddrBytes + 1 + 2)
	if withRow {
		minEntry += 4
	}
	sec, br, n, err := openTable(lvl, name, minEntry)
	if err != nil {
		return nil, err
	}
	defer sec.Close()
	corrupt := func(err error) ([]apd.HistoryEntry, error) {
		return nil, fmt.Errorf("%w: %s in %s: %v", ckpt.ErrCorrupt, name, lvl.Dir, err)
	}
	entries := make([]apd.HistoryEntry, 0, n)
	var u4 [4]byte
	for i := 0; i < n; i++ {
		e := apd.HistoryEntry{Row: i}
		if withRow {
			if _, err := io.ReadFull(br, u4[:]); err != nil {
				return corrupt(err)
			}
			e.Row = int(binary.LittleEndian.Uint32(u4[:]))
		}
		if e.Prefix, err = readPrefix(br); err != nil {
			return corrupt(err)
		}
		if _, err := io.ReadFull(br, u4[:2]); err != nil {
			return corrupt(err)
		}
		e.Counts = make([]uint16, binary.LittleEndian.Uint16(u4[:2]))
		for j := range e.Counts {
			if _, err := io.ReadFull(br, u4[:2]); err != nil {
				return corrupt(err)
			}
			e.Counts[j] = binary.LittleEndian.Uint16(u4[:2])
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// loadAddrSet streams a .hl6 payload's chain levels back into a
// cumulative set, shard by shard: the levels' merge imports as the
// shard's column, or as its one run when the set is spilled. Levels are
// disjoint by construction — an append level logs only addresses its
// base did not hold — so a shard that ends up smaller than its levels'
// counts summed repeats an address, and is ckpt.ErrCorrupt.
func loadAddrSet(levels []*ckpt.Snapshot, name string, set *ip6.SpillSet) error {
	rdrs := make([]*hlfile.Reader, len(levels))
	for i, lvl := range levels {
		sec, err := lvl.Open(name)
		if err != nil {
			return err
		}
		defer sec.Close()
		if rdrs[i], err = hlfile.NewReader(sec, sec.Size()); err != nil {
			return fmt.Errorf("core: opening %s in %s: %w", name, lvl.Dir, err)
		}
	}
	var srcs []ip6.Source
	for sh := 0; sh < ip6.AddrShards; sh++ {
		want := 0
		srcs = srcs[:0]
		for _, r := range rdrs {
			if n := r.ShardLen(sh); n > 0 {
				srcs = append(srcs, checked(name, sh, r))
				want += n
			}
		}
		if err := set.ImportShardSorted(sh, want, ip6.Merge(srcs...)); err != nil {
			return fmt.Errorf("core: loading %s: %w", name, err)
		}
		if got := set.ShardLen(sh); got != want {
			return fmt.Errorf("%w: %s shard %d holds %d addresses, its levels list %d: an append level repeats an address", ckpt.ErrCorrupt, name, sh, got, want)
		}
	}
	return nil
}

// checkedSource is a payload shard's source that fails closed, with
// ckpt.ErrCorrupt, on a run writeAddrSet cannot have written: every
// address must belong to shard sh, in strictly ascending order. A shard
// imports the run as-is, so a stray address would sit where Has never
// looks, and binary search would misread an unsorted one.
type checkedSource struct {
	src  ip6.Source
	name string
	sh   int
	left int // addresses not pulled yet
	prev ip6.Addr
	seen bool // prev holds the address pulled last
}

// checked returns r's shard sh, checked.
func checked(name string, sh int, r *hlfile.Reader) *checkedSource {
	return &checkedSource{src: r.ShardSource(sh), name: name, sh: sh, left: r.ShardLen(sh)}
}

// Len returns how many addresses are left, so that a merge pulls a short
// shard into a buffer no larger than the shard.
func (c *checkedSource) Len() int { return c.left }

func (c *checkedSource) Next(buf []ip6.Addr) (int, error) {
	n, err := c.src.Next(buf)
	c.left -= n
	for _, a := range buf[:n] {
		if ip6.ShardOf(a) != c.sh {
			return 0, fmt.Errorf("%w: %s lists %v under shard %d", ckpt.ErrCorrupt, c.name, a, c.sh)
		}
		if c.seen && a.Compare(c.prev) <= 0 {
			return 0, fmt.Errorf("%w: %s shard %d is not strictly ascending at %v", ckpt.ErrCorrupt, c.name, c.sh, a)
		}
		c.prev, c.seen = a, true
	}
	return n, err
}

// readPrefixList loads a prefix table in file order, plus its members as
// a set; a prefix listed twice is corrupt.
func readPrefixList(lvl *ckpt.Snapshot, name string) ([]ip6.Prefix, map[ip6.Prefix]struct{}, error) {
	sec, br, n, err := openTable(lvl, name, ip6.AddrBytes+1)
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
