// Package apd implements the IPv6 Hitlist's multi-level aliased prefix
// detection (Section 3.1 and 5 of the paper).
//
// A prefix is tested by choosing one pseudo-random address inside each of
// its 16 four-bit subprefixes and probing them with ICMP and TCP/80. If all
// 16 respond — merged across the two protocols and the previous three
// scans, to absorb probe loss — the prefix is labeled aliased (the paper
// suggests "fully responsive" as the better name).
//
// Candidates come from three levels: every BGP-announced prefix, every /64
// with at least one input address, and longer prefixes (in 4-bit steps up
// to /120) holding at least 100 input addresses.
package apd

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"time"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
)

// Config parameterizes the detector.
type Config struct {
	// MinAddrsLongPrefix is the input-address threshold for testing
	// prefixes longer than /64 (the paper uses 100).
	MinAddrsLongPrefix int

	// MaxPrefixLen bounds candidate length; the paper observed aliased
	// prefixes up to /120.
	MaxPrefixLen int

	// MergeScans is how many previous detection rounds are merged into
	// the current one (the paper merges with the previous three scans).
	MergeScans int

	// Protocols probed per slot; the service uses ICMP and TCP/80.
	Protocols []netmodel.Protocol
}

// DefaultConfig mirrors the service configuration.
func DefaultConfig() Config {
	return Config{
		MinAddrsLongPrefix: 100,
		MaxPrefixLen:       120,
		MergeScans:         3,
		Protocols:          []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80},
	}
}

// Candidates derives the multi-level candidate set from the BGP table and
// the service input addresses.
func Candidates(bgp []ip6.Prefix, input []ip6.Addr, cfg Config) []ip6.Prefix {
	seen := make(map[ip6.Prefix]struct{})
	var out []ip6.Prefix
	add := func(p ip6.Prefix) {
		if _, dup := seen[p]; dup {
			return
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}

	// Level 1: BGP-announced prefixes (subdividable ones only).
	for _, p := range bgp {
		if p.Bits()+4 <= 128 && p.Bits() <= cfg.MaxPrefixLen {
			add(p)
		}
	}

	// Level 2: /64s with at least one input address.
	// Level 3: longer prefixes (4-bit steps) with ≥ threshold addresses.
	perLen := make(map[int]map[ip6.Prefix]int)
	for l := 68; l <= cfg.MaxPrefixLen; l += 4 {
		perLen[l] = make(map[ip6.Prefix]int)
	}
	for _, a := range input {
		add(ip6.Slash64(a))
		for l := 68; l <= cfg.MaxPrefixLen; l += 4 {
			perLen[l][ip6.PrefixFrom(a, l)]++
		}
	}
	lens := make([]int, 0, len(perLen))
	for l := range perLen {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	for _, l := range lens {
		for p, n := range perLen[l] {
			if n >= cfg.MinAddrsLongPrefix {
				add(p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return ip6.ComparePrefix(out[i], out[j]) < 0 })
	return out
}

// Detection records the outcome for one candidate in one round.
type Detection struct {
	Prefix ip6.Prefix
	// Bitmap has bit i set when slot i (subprefix nibble i) responded in
	// the current round.
	Bitmap uint16
	// Merged includes the previous MergeScans rounds.
	Merged uint16
	// Aliased is Merged == 0xffff.
	Aliased bool
}

// Result is one detection round over a candidate set.
type Result struct {
	Day     int
	Aliased *ip6.PrefixSet
	// Probes is the number of scanner probes this round used.
	Probes int

	// Draw, Stream and Record are the wall time of the round's slot draw,
	// probe stream and history record: a measure of the machine, not an
	// output of the round.
	Draw, Stream, Record time.Duration

	// dets holds one Detection per candidate, in candidate order.
	dets []Detection
}

// Detections returns every candidate's outcome keyed by prefix. The map
// is built per call — the service only reads Aliased, so a round does not
// pay for it.
func (r *Result) Detections() map[ip6.Prefix]Detection {
	out := make(map[ip6.Prefix]Detection, len(r.dets))
	for _, det := range r.dets {
		out[det.Prefix] = det
	}
	return out
}

// Detector runs rounds of multi-level APD, remembering per-prefix history
// for the cross-scan merge.
type Detector struct {
	scanner *scan.Scanner
	cfg     Config

	// The per-prefix history is flat: rows[p] is the prefix's row in
	// hist, keys[row] its prefix, a row is the last MergeScans+1 round
	// bitmaps oldest first, and histLen says how many of them are
	// recorded yet. Rows are numbered in first-seen order. A round costs
	// each candidate one map lookup and no allocation once its row
	// exists.
	rows    map[ip6.Prefix]int32
	keys    []ip6.Prefix
	hist    []uint16
	histLen []uint16

	// round counts the rounds Run recorded; stamp[row] is the round that
	// last recorded the row (0: imported), so a checkpoint can append
	// just the rows recorded since its parent (ExportRecorded).
	round uint32
	stamp []uint32

	// queue is the sharded slot queue, reused across rounds so
	// steady-state detection allocates no per-round slot storage; rowOf
	// is the record's per-candidate row scratch, reused the same way.
	queue slotQueue
	rowOf []int32
}

// NewDetector builds a detector using the given scanner.
func NewDetector(s *scan.Scanner, cfg Config) *Detector {
	if cfg.MinAddrsLongPrefix <= 0 {
		cfg.MinAddrsLongPrefix = 100
	}
	if cfg.MaxPrefixLen == 0 {
		cfg.MaxPrefixLen = 120
	}
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80}
	}
	return &Detector{scanner: s, cfg: cfg, rows: make(map[ip6.Prefix]int32)}
}

// slotSalt is the stream label of the slot draws: seeding with
// mix^slotSalt draws identically to rng.NewStream(mix, "apd-slot").
var slotSalt = rng.HashString("apd-slot")

// SlotAddrs returns the 16 pseudo-random probe addresses of prefix p in
// the round keyed by day: slot v lies in the subprefix whose next nibble
// is v, its remaining host bits drawn from a stream seeded by
// rng.Mix(p.hi, p.lo, p.bits, v, day). The draw is deterministic per
// (prefix, slot, day): stable within a round, fresh across rounds. p must
// be at most a /124.
func SlotAddrs(p ip6.Prefix, day int) (out [16]ip6.Addr) {
	hi, lo, bits := p.Addr().Hi(), p.Addr().Lo(), p.Bits()
	// Both the prefix words of the seed hash and the host-bit geometry
	// are the same for all 16 slots.
	mix := rng.MixPrefix(hi, lo, uint64(bits))
	host := 124 - bits
	for v := range out {
		shi, slo := depositBits(hi, lo, bits, 4, uint64(v)<<60)
		if host > 0 {
			r := rng.NewStreamSeed(mix.Add(uint64(v)).Add(uint64(day)).Sum() ^ slotSalt)
			shi, slo = depositBits(shi, slo, bits+4, min(host, 64), r.Uint64())
			if host > 64 {
				shi, slo = depositBits(shi, slo, bits+68, host-64, r.Uint64())
			}
		}
		out[v] = ip6.AddrFromUint64s(shi, slo)
	}
	return out
}

// SlotAddr returns slot v (0–15) of SlotAddrs(p, day).
func SlotAddr(p ip6.Prefix, v byte, day int) ip6.Addr {
	return SlotAddrs(p, day)[v]
}

// depositBits ORs the top n bits (1–64) of chunk into the 128-bit word
// (hi, lo) at bit offset pos from the most significant end; the bits it
// lands on must be zero, as the host bits of a masked prefix are.
func depositBits(hi, lo uint64, pos, n int, chunk uint64) (uint64, uint64) {
	chunk &^= 1<<(64-n) - 1
	if pos < 64 {
		// A shift by 64 (pos == 0) yields 0, which is what lo wants then.
		return hi | chunk>>pos, lo | chunk<<(64-pos)
	}
	return hi, lo | chunk>>(pos-64)
}

// slotRef ties one routed probe address back to its (candidate, slot)
// pair, and carries the slot's outcome back from the scan.
type slotRef struct {
	cand int32
	v    byte
	hit  bool
}

// slotQueue is the sharded candidate queue feeding APD probe rounds into
// the scan engine: every candidate's 16 slot addresses are drawn exactly
// once and routed to their canonical shard alongside a back-reference,
// so no flat candidates×16 target slice is ever built. It implements
// scan.ShardedSource — probe workers pull their shard's address slice
// directly (zero-copy spans) — and the round's sink marks refs by result
// position, so no result is ever looked up by address.
type slotQueue struct {
	addrs [ip6.AddrShards][]ip6.Addr
	refs  [ip6.AddrShards][]slotRef
	// generic pull cursor (canonical shard order)
	sh, off int

	// The draw's scratch, reused across rounds: every candidate's 16 slot
	// addresses in candidate order with their shards (AddrShards fits a
	// byte), and per chunk of roundChunk candidates its slot count in
	// each shard, then its first position there.
	slots  []ip6.Addr
	shards []uint8
	at     [][ip6.AddrShards]int32
}

// roundChunk is how many candidates one task of a round's parallel draw
// and row lookup covers.
const roundChunk = 64

// chunks returns how many roundChunk-sized chunks n candidates make.
func chunks(n int) int { return (n + roundChunk - 1) / roundChunk }

// chunk returns the candidate index range of chunk c of n candidates.
func chunk(c, n int) (lo, hi int) { return c * roundChunk, min((c+1)*roundChunk, n) }

// fill routes a round's slot addresses into the queue on up to workers
// goroutines, reusing the previous round's backing arrays. Each shard's
// queue holds its slots in candidate order, as one serial pass appending
// every candidate's slots in turn would: the chunks draw their slots and
// count them per shard, a prefix sum over the counts in chunk order gives
// each chunk its first position in every shard, and the chunks scatter
// their slots there. A candidate too long to subdivide is refused before
// any slot is drawn.
func (q *slotQueue) fill(candidates []ip6.Prefix, day, workers int) error {
	for _, p := range candidates {
		if p.Bits()+4 > 128 {
			return fmt.Errorf("apd: candidate %v too long to subdivide", p)
		}
	}
	q.sh, q.off = 0, 0
	n := len(candidates)
	q.slots = slices.Grow(q.slots[:0], 16*n)[:16*n]
	q.shards = slices.Grow(q.shards[:0], 16*n)[:16*n]
	q.at = slices.Grow(q.at[:0], chunks(n))[:chunks(n)]
	ip6.Parallel(workers, len(q.at), func(c int) {
		count := &q.at[c]
		*count = [ip6.AddrShards]int32{}
		lo, hi := chunk(c, n)
		for i := lo; i < hi; i++ {
			slots := (*[16]ip6.Addr)(q.slots[16*i:])
			*slots = SlotAddrs(candidates[i], day)
			for v, a := range slots {
				sh := ip6.ShardOf(a)
				q.shards[16*i+v] = uint8(sh)
				count[sh]++
			}
		}
	})
	var total [ip6.AddrShards]int32
	for c := range q.at {
		for sh, k := range q.at[c] {
			q.at[c][sh] = total[sh]
			total[sh] += k
		}
	}
	for sh, k := range total {
		q.addrs[sh] = slices.Grow(q.addrs[sh][:0], int(k))[:k]
		q.refs[sh] = slices.Grow(q.refs[sh][:0], int(k))[:k]
	}
	ip6.Parallel(workers, len(q.at), func(c int) {
		at := &q.at[c]
		lo, hi := chunk(c, n)
		for i := lo; i < hi; i++ {
			for v, a := range q.slots[16*i : 16*i+16] {
				sh := q.shards[16*i+v]
				q.addrs[sh][at[sh]] = a
				q.refs[sh][at[sh]] = slotRef{cand: int32(i), v: byte(v)}
				at[sh]++
			}
		}
	})
	return nil
}

func (q *slotQueue) Next(buf []ip6.Addr) (int, error) {
	for q.sh < ip6.AddrShards && q.off >= len(q.addrs[q.sh]) {
		q.sh++
		q.off = 0
	}
	if q.sh >= ip6.AddrShards {
		return 0, io.EOF
	}
	n := copy(buf, q.addrs[q.sh][q.off:])
	q.off += n
	return n, nil
}

func (q *slotQueue) ShardSource(sh int) scan.TargetSource {
	if len(q.addrs[sh]) == 0 {
		return nil
	}
	return scan.SliceSource(q.addrs[sh])
}

func (q *slotQueue) ShardLen(sh int) int { return len(q.addrs[sh]) }

// mark is the round's scan sink: result k of a shard's probe sequence is
// protocol k%nprotos of the shard's slot k/nprotos, so a success marks
// that slot's ref directly. The engine delivers a shard's batches
// sequentially, which makes the per-shard writes race-free, and marking
// by position is idempotent, so a shard re-issued after a worker death
// lands on the same refs.
func (q *slotQueue) mark(b *scan.Batch, nprotos int) {
	refs := q.refs[b.Shard]
	slot, proto := b.Offset()/nprotos, b.Offset()%nprotos
	for i := range b.Results {
		if b.Results[i].Success {
			refs[slot].hit = true
		}
		if proto++; proto == nprotos {
			slot, proto = slot+1, 0
		}
	}
}

// Run executes one detection round at the given day as a single streamed
// pass: draw the 16 slots per candidate into the sharded queue, let the
// engine's probe workers pull it shard by shard while the sink marks the
// responding slots in place, fold the marks into per-candidate bitmaps,
// and merge each with its history row. The draw and the history record
// run on the scanner's worker pool.
func (d *Detector) Run(ctx context.Context, candidates []ip6.Prefix, day int) (*Result, error) {
	start := time.Now()
	q := &d.queue
	workers := d.scanner.Config().Workers
	if err := q.fill(candidates, day, workers); err != nil {
		return nil, err
	}
	drawn := time.Now()
	nprotos := len(d.cfg.Protocols)
	d.round++
	stats, err := d.scanner.StreamFrom(ctx, q, d.cfg.Protocols, day, func(b *scan.Batch) error {
		q.mark(b, nprotos)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("apd: scanning candidates: %w", err)
	}
	streamed := time.Now()

	res := &Result{
		Day:     day,
		Aliased: ip6.NewPrefixSet(),
		Probes:  int(stats.ProbesSent),
		Draw:    drawn.Sub(start),
		Stream:  streamed.Sub(drawn),
		dets:    make([]Detection, len(candidates)),
	}
	for sh := range q.refs {
		for _, ref := range q.refs[sh] {
			if ref.hit {
				res.dets[ref.cand].Bitmap |= 1 << ref.v
			}
		}
	}
	d.record(candidates, res.dets, workers)
	for i, p := range candidates {
		det := &res.dets[i]
		det.Prefix = p
		if det.Aliased = det.Merged == 0xffff; det.Aliased {
			res.Aliased.Add(p)
		}
	}
	res.Record = time.Since(streamed)
	return res, nil
}

// rowBlock is how many consecutive history rows one worker of the
// record's update owns, so workers do not write the same cache lines.
const rowBlock = 64

// record merges each candidate's bitmap into its history row and sets the
// candidate's Merged, on up to workers goroutines. The rows are looked up
// on the pool; the candidates without one get new rows serially, in
// candidate order, so rows stay numbered in first-seen order; then each
// worker updates the rows of its blocks, walking the candidates in order,
// so a prefix listed twice in one round merges its listings in candidate
// order, as one serial pass would.
func (d *Detector) record(candidates []ip6.Prefix, dets []Detection, workers int) {
	n := len(candidates)
	d.rowOf = slices.Grow(d.rowOf[:0], n)[:n]
	ip6.Parallel(workers, chunks(n), func(c int) {
		lo, hi := chunk(c, n)
		for i := lo; i < hi; i++ {
			row, ok := d.rows[candidates[i]]
			if !ok {
				row = -1
			}
			d.rowOf[i] = row
		}
	})
	for i, row := range d.rowOf {
		if row >= 0 {
			continue
		}
		// An earlier listing in this round may have made the row.
		p := candidates[i]
		if row, ok := d.rows[p]; ok {
			d.rowOf[i] = row
			continue
		}
		d.rowOf[i] = d.newRow(p)
	}
	parts := max(min(workers, len(d.keys)/rowBlock), 1)
	ip6.Parallel(workers, parts, func(w int) {
		for i, row := range d.rowOf {
			if int(row)/rowBlock%parts == w {
				dets[i].Merged = d.merge(row, dets[i].Bitmap)
			}
		}
	})
}

// newRow appends an empty history row for p, the next in first-seen
// order, and returns it.
func (d *Detector) newRow(p ip6.Prefix) int32 {
	row := int32(len(d.keys))
	d.rows[p] = row
	d.keys = append(d.keys, p)
	d.hist = append(d.hist, make([]uint16, d.cfg.MergeScans+1)...)
	d.histLen = append(d.histLen, 0)
	d.stamp = append(d.stamp, 0)
	return row
}

// merge appends this round's bitmap to history row row (dropping the
// oldest entry of a full row) and returns the bitmap merged with the
// MergeScans rounds before it.
func (d *Detector) merge(row int32, bitmap uint16) uint16 {
	stride := d.cfg.MergeScans + 1
	d.stamp[row] = d.round
	h := d.hist[int(row)*stride : (int(row)+1)*stride]
	n := int(d.histLen[row])
	if n == stride {
		// Full row: the oldest entry is outside the merge window.
		copy(h, h[1:])
		n--
	}
	merged := bitmap
	for _, old := range h[:n] {
		merged |= old
	}
	h[n] = bitmap
	d.histLen[row] = uint16(n + 1)
	return merged
}

// Has reports whether p has a history row: whether some round tested it.
func (d *Detector) Has(p ip6.Prefix) bool {
	_, ok := d.rows[p]
	return ok
}

// ResponsiveSlots counts the responding slots in a bitmap.
func ResponsiveSlots(bitmap uint16) int { return bits.OnesCount16(bitmap) }

// Aggregate collapses nested aliased prefixes: descendants of an aliased
// prefix are dropped so the set reflects maximal aliased regions (an
// aliased /32 subsumes its aliased /36s).
func Aggregate(aliased []ip6.Prefix) []ip6.Prefix {
	sorted := append([]ip6.Prefix(nil), aliased...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Bits() != sorted[j].Bits() {
			return sorted[i].Bits() < sorted[j].Bits()
		}
		return ip6.ComparePrefix(sorted[i], sorted[j]) < 0
	})
	kept := ip6.NewPrefixSet()
	var out []ip6.Prefix
	for _, p := range sorted {
		if _, covered := kept.Match(p.Addr()); covered {
			continue
		}
		kept.Add(p)
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return ip6.ComparePrefix(out[i], out[j]) < 0 })
	return out
}

// HistoryEntry is one prefix's response-pattern history — the state a
// checkpoint must carry so a resumed timeline's MergeScans window sees
// exactly the rounds an uninterrupted run would. Row is the prefix's row
// index: its place in first-seen order.
type HistoryEntry struct {
	Row    int
	Prefix ip6.Prefix
	Counts []uint16
}

// ExportHistory returns the per-prefix detection history in first-seen
// order: row by row, as Run created them. That order is deterministic
// without sorting — Run records candidates in list order whatever the
// engine shape, and a detector that imported a history continues its
// rows. The Counts slices alias the detector's rows; they are valid
// until the next Run, ImportHistory or ApplyHistory.
func (d *Detector) ExportHistory() []HistoryEntry { return d.export(0, true) }

// Round returns how many rounds Run has recorded; ImportHistory does not
// reset it.
func (d *Detector) Round() uint32 { return d.round }

// ExportRecorded returns, in row order, the rows recorded by rounds after
// round — what changed since a checkpoint taken at Round() == round.
// Imported rows count as recorded at round 0. The Counts slices alias
// the detector's rows, as ExportHistory's do.
func (d *Detector) ExportRecorded(round uint32) []HistoryEntry { return d.export(round, false) }

func (d *Detector) export(after uint32, all bool) []HistoryEntry {
	stride := d.cfg.MergeScans + 1
	var out []HistoryEntry
	if all {
		out = make([]HistoryEntry, 0, len(d.keys))
	}
	for row, p := range d.keys {
		if all || d.stamp[row] > after {
			at := row * stride
			out = append(out, HistoryEntry{Row: row, Prefix: p, Counts: d.hist[at : at+int(d.histLen[row])]})
		}
	}
	return out
}

// ImportHistory replaces the detector's history with the given entries,
// in their order (Row is ignored), keeping each prefix's newest
// MergeScans+1 rounds — all a row holds. Any order imports (detection
// does not depend on it); a prefix listed twice is an error and leaves
// the detector unchanged.
func (d *Detector) ImportHistory(entries []HistoryEntry) error {
	stride := d.cfg.MergeScans + 1
	rows := make(map[ip6.Prefix]int32, len(entries))
	keys := make([]ip6.Prefix, len(entries))
	hist := make([]uint16, len(entries)*stride)
	histLen := make([]uint16, len(entries))
	for i, e := range entries {
		if _, dup := rows[e.Prefix]; dup {
			return fmt.Errorf("apd: history lists %v twice", e.Prefix)
		}
		counts := e.Counts[max(0, len(e.Counts)-stride):]
		rows[e.Prefix] = int32(i)
		keys[i] = e.Prefix
		histLen[i] = uint16(copy(hist[i*stride:], counts))
	}
	d.rows, d.keys, d.hist, d.histLen = rows, keys, hist, histLen
	d.stamp = make([]uint32, len(entries))
	return nil
}

// ApplyHistory applies rows exported by ExportRecorded over the history
// they were recorded on, in ascending row order: an entry naming an
// existing row must carry that row's prefix and replaces its counts; one
// naming the next row appends it. A row index out of order or past the
// next row, a prefix that differs from its row's, or a new row whose
// prefix already has one is an error, and may leave the history partly
// applied.
func (d *Detector) ApplyHistory(entries []HistoryEntry) error {
	stride := d.cfg.MergeScans + 1
	last := -1
	for _, e := range entries {
		switch {
		case e.Row <= last || e.Row > len(d.keys):
			return fmt.Errorf("apd: history row %d after row %d of %d", e.Row, last, len(d.keys))
		case e.Row < len(d.keys) && d.keys[e.Row] != e.Prefix:
			return fmt.Errorf("apd: history row %d names %v, the base has %v", e.Row, e.Prefix, d.keys[e.Row])
		case e.Row == len(d.keys):
			if _, dup := d.rows[e.Prefix]; dup {
				return fmt.Errorf("apd: history lists %v twice", e.Prefix)
			}
			d.rows[e.Prefix] = int32(e.Row)
			d.keys = append(d.keys, e.Prefix)
			d.hist = append(d.hist, make([]uint16, stride)...)
			d.histLen = append(d.histLen, 0)
			d.stamp = append(d.stamp, 0)
		}
		counts := e.Counts[max(0, len(e.Counts)-stride):]
		d.histLen[e.Row] = uint16(copy(d.hist[e.Row*stride:(e.Row+1)*stride], counts))
		last = e.Row
	}
	return nil
}
