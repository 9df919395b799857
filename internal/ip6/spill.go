package ip6

// Cumulative address sets. The sets the hitlist pipeline carries across
// scans (every address ever seen as input, every address ever responsive,
// the GFW evidence) only grow, with the full history of the measurement —
// at paper scale hundreds of millions of 16-byte addresses. SpillSet is
// the one type they all use: per shard an immutable ascending column, or
// under a memory budget frozen sorted runs on disk, plus a small pending
// Δ that Compact folds in. RunFile/Run are the sorted-run primitives
// SpillSet (and the hlfile writer) are built from: frozen sorted runs
// appended to a scratch file, fence-indexed point lookups, run readers
// that ReadAt straight into the buffer of whoever pulls them (Merge, a
// view, a checkpoint write), and runs streamed back out of a merge a
// chunk at a time (writeFrom).

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// AddrBytes is the on-disk size of one address in every external-memory
// structure of this package (raw network byte order, no framing).
const AddrBytes = 16

// RawBytes returns addrs' backing memory as bytes, without a copy: Addr
// is [16]byte (alignment 1, no padding), so a slice of addresses is
// already its on-disk image. Spill runs and .hl6 bodies are written from
// it, and a .hl6 reader reads into it.
func RawBytes(addrs []Addr) []byte {
	if len(addrs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&addrs[0])), len(addrs)*AddrBytes)
}

// fenceEvery is the fence-index granularity of a Run: one resident
// address per this many on-disk addresses, so a point lookup costs one
// bounded ReadAt after a resident binary search.
const fenceEvery = 256

// RunFile is an append-only scratch file of sorted address runs. Runs are
// written whole under an internal lock (safe from concurrent per-shard
// workers) and read with ReadAt (safe concurrently with appends).
// Superseded runs become dead space until the file is closed and removed
// — owners that churn runs (SpillSet.Compact) rotate to a fresh file
// once dead bytes outgrow live data.
type RunFile struct {
	f  *os.File
	mu sync.Mutex
	sz int64
}

// OpenRunFile creates a fresh scratch run file in dir ("" = the system
// temp directory). The file is removed by Close.
func OpenRunFile(dir, pattern string) (*RunFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, fmt.Errorf("ip6: creating run file: %w", err)
	}
	return &RunFile{f: f}, nil
}

// Close closes and removes the scratch file.
func (rf *RunFile) Close() error {
	name := rf.f.Name()
	err := rf.f.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	return err
}

// truncate empties the file, dropping every run written to it.
func (rf *RunFile) truncate() error {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if err := rf.f.Truncate(0); err != nil {
		return fmt.Errorf("ip6: truncating run file: %w", err)
	}
	rf.sz = 0
	return nil
}

// Size returns the bytes appended so far.
func (rf *RunFile) Size() int64 {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return rf.sz
}

// Run is one frozen sorted run inside a RunFile: a contiguous range of
// strictly ascending addresses, plus a resident fence index (every
// fenceEvery-th address and the last) for bounded-cost point lookups.
type Run struct {
	off   int64
	count int
	fence []Addr
	last  Addr
}

// Count returns the number of addresses in the run.
func (r *Run) Count() int { return r.count }

// buildFence indexes a sorted address slice.
func buildFence(addrs []Addr) (fence []Addr, last Addr) {
	for i := 0; i < len(addrs); i += fenceEvery {
		fence = append(fence, addrs[i])
	}
	return fence, addrs[len(addrs)-1]
}

// WriteRun appends addrs — which must be sorted ascending — as one run
// and returns its handle. Duplicates within addrs are kept (Merge drops
// them); an empty slice yields an empty run.
func (rf *RunFile) WriteRun(addrs []Addr) (Run, error) {
	if len(addrs) == 0 {
		return Run{}, nil
	}
	buf := RawBytes(addrs)
	rf.mu.Lock()
	off := rf.sz
	rf.sz += int64(len(buf))
	rf.mu.Unlock()
	if _, err := rf.f.WriteAt(buf, off); err != nil {
		return Run{}, fmt.Errorf("ip6: writing run: %w", err)
	}
	fence, last := buildFence(addrs)
	return Run{off: off, count: len(addrs), fence: fence, last: last}, nil
}

// Has reports whether a is in the run: a one-address probe. scratch is
// the caller's reusable read buffer (grown as needed); callers honoring
// the per-shard contract can share one per shard.
func (r *Run) Has(rf *RunFile, a Addr, scratch *[]byte) (bool, error) {
	var hit [1]bool
	err := r.probe(rf, []Addr{a}, hit[:], scratch)
	return hit[0], err
}

// readBlock reads fence block blk of the run into scratch (grown as
// needed) and returns its raw bytes.
func (r *Run) readBlock(rf *RunFile, blk int, scratch *[]byte) ([]byte, error) {
	start := blk * fenceEvery
	need := min(r.count-start, fenceEvery) * AddrBytes
	if cap(*scratch) < need {
		*scratch = make([]byte, need)
	}
	b := (*scratch)[:need]
	if _, err := rf.f.ReadAt(b, r.off+int64(start*AddrBytes)); err != nil {
		return nil, fmt.Errorf("ip6: reading run block: %w", err)
	}
	return b, nil
}

// searchBlock binary-searches the raw ascending addresses of b from
// position lo on, returning the position of the first one not below a and
// whether it is a.
func searchBlock(b []byte, lo int, a Addr) (int, bool) {
	hi := len(b) / AddrBytes
	for lo < hi {
		mid := (lo + hi) / 2
		c := compareBytes(a, b[mid*AddrBytes:])
		switch {
		case c == 0:
			return mid, true
		case c < 0:
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return lo, false
}

// probe marks in hit the addresses of sorted — ascending — that the run
// holds, walking its fence index forward: every fence block that could
// hold one of them is read once, however many of them it could hold.
// Addresses already marked are skipped.
func (r *Run) probe(rf *RunFile, sorted []Addr, hit []bool, scratch *[]byte) error {
	if r.count == 0 {
		return nil
	}
	var b []byte
	blk, pos := -1, 0 // the block in b, and where its search resumes
	for k, a := range sorted {
		if hit[k] || a.Less(r.fence[0]) {
			continue
		}
		if r.last.Less(a) {
			return nil
		}
		// Last fence block whose first address is <= a, galloping on from
		// the block of the address before.
		from := max(blk, 0)
		at := from + gallop(r.fence[from:], a)
		if at == len(r.fence) || r.fence[at] != a {
			at--
		}
		if at != blk {
			var err error
			if b, err = r.readBlock(rf, at, scratch); err != nil {
				return err
			}
			blk, pos = at, 0
		}
		pos, hit[k] = searchBlock(b, pos, a)
	}
	return nil
}

// compareBytes orders a against the 16 raw bytes at b[0:16].
func compareBytes(a Addr, b []byte) int {
	for i := 0; i < AddrBytes; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// runChunk is how many addresses a merge pulls from one run at a time.
const runChunk = 1024

// writeChunk is how many addresses a streamed run is written in at a
// time (64 KiB).
const writeChunk = 4096

// runReader is a Source over one run: each pull reads straight into the
// caller's buffer.
type runReader struct {
	rf   *RunFile
	off  int64
	left int
}

func (rf *RunFile) reader(r *Run) Source {
	return &runReader{rf: rf, off: r.off, left: r.count}
}

// Len returns how many addresses are left.
func (rr *runReader) Len() int { return rr.left }

func (rr *runReader) Next(buf []Addr) (int, error) {
	if rr.left == 0 {
		return 0, io.EOF
	}
	n := min(len(buf), rr.left)
	if _, err := rr.rf.f.ReadAt(RawBytes(buf[:n]), rr.off); err != nil {
		return 0, fmt.Errorf("ip6: reading run: %w", err)
	}
	rr.off += int64(n) * AddrBytes
	rr.left -= n
	if rr.left == 0 {
		return n, io.EOF
	}
	return n, nil
}

// Merge returns the sorted union of runs, dropping duplicates within and
// across them.
func (rf *RunFile) Merge(runs []*Run) Source {
	srcs := make([]Source, len(runs))
	for i, r := range runs {
		srcs[i] = rf.reader(r)
	}
	return Merge(srcs...)
}

// writeFrom appends every address src yields (strictly ascending) as one
// run, pulled through buf and written a chunk at a time, so the run is
// never materialized: the streaming counterpart of WriteRun. The run's
// bytes are contiguous and nothing is reserved up front, so only one
// writeFrom may run per RunFile at a time.
func (rf *RunFile) writeFrom(src Source, buf []Addr) (Run, error) {
	rf.mu.Lock()
	run := Run{off: rf.sz}
	rf.mu.Unlock()
	err := Drain(src, buf, func(c []Addr) error {
		for i := (fenceEvery - run.count%fenceEvery) % fenceEvery; i < len(c); i += fenceEvery {
			run.fence = append(run.fence, c[i])
		}
		if _, err := rf.f.WriteAt(RawBytes(c), run.off+int64(run.count)*AddrBytes); err != nil {
			return fmt.Errorf("ip6: writing merged run: %w", err)
		}
		run.count += len(c)
		run.last = c[len(c)-1]
		return nil
	})
	if err != nil {
		return Run{}, err
	}
	rf.mu.Lock()
	rf.sz = max(rf.sz, run.off+int64(run.count)*AddrBytes)
	rf.mu.Unlock()
	return run, nil
}

// SpillSet is the cumulative address set. Each shard holds its members
// in one of two forms, plus a pending Δ:
//
//   - resident (NewResidentSet): one ascending column. A column is never
//     written in place — folding a Δ in builds a fresh one (Compact when
//     the Δ has outgrown a fraction of the column, View always), and a
//     shard with nothing to fold keeps the very same slice — so views
//     wrap columns without a copy, and slice identity tells a reader
//     which shards changed.
//   - spilled (NewSpillSet): frozen sorted runs in a shared scratch
//     RunFile. When a shard's Δ reaches the budget it freezes — sorted,
//     written as a run, cleared — so resident memory is bounded by
//     AddrShards × budget addresses regardless of cardinality. Compact
//     merges each shard's runs into one, keeping point lookups at one
//     fence search per shard.
//
// The Δ holds the inserts (AddToShard, AddSortedToShard) since the last
// fold. Inserts check membership first, so Δ, column and runs are
// mutually disjoint and Len is a plain counter sum. Fold and spill
// triggers are shard-local, so every observation (Has, Len, sources,
// views, the add log) depends solely on each shard's own insert
// sequence, never on cross-shard timing.
//
// Per-shard contract: at most one goroutine touches a given shard at a
// time; Compact and whole-set reads (Len, Merge, View) run outside
// per-shard sweeps.
//
// Disk errors are sticky: the failing operation degrades (Has reports
// false, Add drops the freeze) and Err returns the first error for the
// owner to surface at its next checkpoint.
//
// After StartLog the set also logs the addresses each shard newly gains,
// for delta checkpoints. A spilled set's log is bounded like its Δ: a
// shard keeps at most budget logged addresses resident and spills the
// rest as sorted runs into a second scratch file, which StartLog
// discards.
type SpillSet struct {
	rf     *RunFile // nil for a resident set
	dir    string
	budget int
	shards [AddrShards]spillShard
	log    *spillLog // nil until StartLog

	frozen atomic.Int64 // runs frozen over the set's lifetime (telemetry)
	failed atomic.Bool  // latch: stop freezing after the first disk error

	errMu    sync.Mutex
	firstErr error
}

// spillLog is a SpillSet's add log: the resident part in addLog, the
// spilled part as runs in its own scratch file.
type spillLog struct {
	addLog
	rf   *RunFile // nil for a resident set, or when creating it failed
	runs [AddrShards][]*Run
}

type spillShard struct {
	col     []Addr // resident members, ascending; never written in place
	runs    []*Run // spilled members
	ondisk  int    // addresses in runs
	delta   Set    // pending inserts, disjoint from col and runs
	scratch []byte
}

// batchScratch is the scratch of one batch join: a batch's addresses in
// sorted order with their positions in the batch, the sorted addresses
// alone, and which of them are members.
type batchScratch struct {
	keyed  []keyedAddr
	sorted []Addr
	hit    []bool
}

// batchPool recycles batch scratch, so a sweep over the shards keeps one
// per worker alive, not one per shard, and a large batch's scratch (a
// first scan's input) is not held for good.
var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// sort fills keyed and sorted with addrs in ascending order, repeats in
// batch order, and returns sorted.
func (b *batchScratch) sort(addrs []Addr) []Addr {
	b.keyed = b.keyed[:0]
	for k, a := range addrs {
		b.keyed = append(b.keyed, keyedAddr{addrWords{a.Hi(), a.Lo()}, int32(k)})
	}
	slices.SortFunc(b.keyed, func(x, y keyedAddr) int {
		if c := compareWords(x.w, y.w); c != 0 {
			return c
		}
		return cmp.Compare(x.k, y.k)
	})
	b.sorted = b.sorted[:0]
	for _, e := range b.keyed {
		b.sorted = append(b.sorted, AddrFromUint64s(e.w.hi, e.w.lo))
	}
	return b.sorted
}

// keyedAddr is one batch address as sort words, and its position k in the
// batch.
type keyedAddr struct {
	w addrWords
	k int32
}

// NewResidentSet returns an empty set with no budget: every shard folds
// into a resident column, and no scratch file is opened.
func NewResidentSet() *SpillSet { return &SpillSet{} }

// NewSpillSet creates a disk-backed set whose scratch file lives in dir
// ("" = system temp). budget is the per-shard resident address count that
// triggers a freeze; values < 1 are clamped to 1 (every insert spills —
// maximal disk pressure, used by the larger-than-memory tests).
func NewSpillSet(dir string, budget int) (*SpillSet, error) {
	rf, err := OpenRunFile(dir, "ip6-spill-*.runs")
	if err != nil {
		return nil, err
	}
	return &SpillSet{rf: rf, dir: dir, budget: max(budget, 1)}, nil
}

// Close releases the scratch files; harmless on a resident set.
func (s *SpillSet) Close() error {
	if s.log != nil && s.log.rf != nil {
		s.log.rf.Close()
	}
	if s.rf == nil {
		return nil
	}
	return s.rf.Close()
}

// Err returns the first disk error any operation hit, or nil.
func (s *SpillSet) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

// FrozenRuns reports how many runs have been frozen over the set's
// lifetime (compaction does not reset it) — the "did we actually spill"
// signal for tests and telemetry.
func (s *SpillSet) FrozenRuns() int64 { return s.frozen.Load() }

// SpilledBytes reports the scratch file's current size.
func (s *SpillSet) SpilledBytes() int64 {
	if s.rf == nil {
		return 0
	}
	return s.rf.Size()
}

func (s *SpillSet) fail(err error) {
	s.failed.Store(true)
	s.errMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.errMu.Unlock()
}

// Add inserts a into its canonical shard.
func (s *SpillSet) Add(a Addr) bool { return s.AddToShard(ShardOf(a), a) }

// AddToShard inserts a into shard i's Δ under the per-shard contract
// (ShardOf(a) must equal i), reporting whether a was newly added.
func (s *SpillSet) AddToShard(i int, a Addr) bool {
	if s.HasInShard(i, a) {
		return false
	}
	s.insert(i, a)
	return true
}

// AddSortedToShard inserts addrs — ascending, every one in shard i —
// under the per-shard contract, and returns how many were new. Membership
// is one forward join of the list against the shard (members); the new
// addresses then join the Δ like point inserts. addrs is not retained.
func (s *SpillSet) AddSortedToShard(i int, addrs []Addr) int {
	b := batchPool.Get().(*batchScratch)
	defer batchPool.Put(b)
	b.hit = s.members(i, addrs, b.hit)
	n := 0
	for k, a := range addrs {
		if !b.hit[k] && (k == 0 || addrs[k-1] != a) {
			s.insert(i, a)
			n++
		}
	}
	return n
}

// AddBatchToShard inserts addrs — every one in shard i, in any order,
// repeats allowed — under the per-shard contract, with the outcome of
// AddToShard called on each in turn: fresh[k] (fresh is at least
// len(addrs) long) reports whether addrs[k] was newly added, which is
// true for the first occurrence of each address that was not a member.
// On a shard with runs, a sorted permutation of addrs is joined against
// the shard in one forward pass (members), then the new addresses are
// inserted in the caller's order, so the add log, the freeze points and
// the runs written are the ones the point inserts would make. A shard
// with no run takes the point inserts: with nothing to read from disk, a
// binary search of the column costs less than sorting the batch. addrs
// is not retained.
func (s *SpillSet) AddBatchToShard(i int, addrs []Addr, fresh []bool) {
	if len(s.shards[i].runs) == 0 {
		for k, a := range addrs {
			fresh[k] = s.AddToShard(i, a)
		}
		return
	}
	b := batchPool.Get().(*batchScratch)
	defer batchPool.Put(b)
	b.hit = s.members(i, b.sort(addrs), b.hit)
	for j, e := range b.keyed {
		fresh[e.k] = !b.hit[j] && (j == 0 || b.keyed[j-1].w != e.w)
	}
	for k, a := range addrs {
		if fresh[k] {
			s.insert(i, a)
		}
	}
}

// members reports in hit, reused and returned, which addresses of sorted
// — ascending, every one in shard i — are members of shard i, in one
// forward pass over each part of it: the Δ by map lookup, the column by
// galloping, and each run by a forward probe that reads each fence block
// at most once (Run.probe). A run read error latches Err, and the batch's
// addresses not found before it read as absent, as HasInShard degrades.
func (s *SpillSet) members(i int, sorted []Addr, hit []bool) []bool {
	sh := &s.shards[i]
	hit = hit[:0]
	col := sh.col
	for _, a := range sorted {
		col = col[gallop(col, a):]
		hit = append(hit, len(col) > 0 && col[0] == a || sh.delta.Has(a))
	}
	// Newest runs first, as inRuns probes.
	for j := len(sh.runs) - 1; j >= 0; j-- {
		if err := sh.runs[j].probe(s.rf, sorted, hit, &sh.scratch); err != nil {
			s.fail(err)
			break
		}
	}
	return hit
}

// insert adds a, not a member, to shard i's Δ, logs it, and freezes a
// spilled shard's Δ that reached the budget.
func (s *SpillSet) insert(i int, a Addr) {
	sh := &s.shards[i]
	if sh.delta == nil {
		sh.delta = NewSet(0)
	}
	sh.delta[a] = struct{}{}
	if s.log != nil {
		s.logAdd(i, a)
	}
	// The failed latch stops freeze attempts after a disk error: without
	// it every over-budget insert would re-sort and re-write the whole
	// delta against a dead disk. Membership stays correct (the delta just
	// grows resident) and the sticky error surfaces via Err.
	if s.rf != nil && len(sh.delta) >= s.budget && !s.failed.Load() {
		s.freeze(i)
	}
}

// merged returns col ∪ add — both strictly ascending — as a fresh slice,
// galloping through col for each address of add. An address in both is
// kept once, from col.
func merged(col, add []Addr) []Addr {
	out := make([]Addr, 0, len(col)+len(add))
	for _, a := range add {
		k := gallop(col, a)
		out = append(out, col[:k]...)
		if col = col[k:]; len(col) == 0 || col[0] != a {
			out = append(out, a)
		}
	}
	return append(out, col...)
}

// gallop is searchAddrs for an a expected near the front of sorted: it
// doubles a probe distance until it passes a, then binary-searches the
// last doubling, so finding m ascending addresses in turn costs
// O(m·log(n/m)) comparisons.
func gallop(sorted []Addr, a Addr) int {
	lo, step := 0, 1
	for lo+step <= len(sorted) && sorted[lo+step-1].Less(a) {
		lo += step
		step *= 2
	}
	return lo + searchAddrs(sorted[lo:min(lo+step, len(sorted))], a)
}

// searchAddrs returns the index of the first address in sorted that is
// not below a.
func searchAddrs(sorted []Addr, a Addr) int {
	hi, lo := a.Hi(), a.Lo()
	i, j := 0, len(sorted)
	for i < j {
		m := int(uint(i+j) >> 1)
		mhi, mlo := sorted[m].Hi(), sorted[m].Lo()
		if mhi < hi || (mhi == hi && mlo < lo) {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// hasSorted reports whether a is in the ascending slice sorted.
func hasSorted(sorted []Addr, a Addr) bool {
	i := searchAddrs(sorted, a)
	return i < len(sorted) && sorted[i] == a
}

// freeze spills shard i's delta as a sorted run and clears it.
func (s *SpillSet) freeze(i int) {
	sh := &s.shards[i]
	if len(sh.delta) == 0 {
		return
	}
	run, err := s.rf.WriteRun(sh.delta.Sorted())
	if err != nil {
		// Keep the delta resident: membership stays correct, the error
		// surfaces via Err.
		s.fail(err)
		return
	}
	sh.runs = append(sh.runs, &run)
	sh.ondisk += run.count
	sh.delta = nil
	s.frozen.Add(1)
}

// logAdd logs a, just added to shard i, spilling the shard's resident
// log as a sorted run once it reaches the budget. A failed spill keeps
// the log resident and latches the sticky error, as freeze does.
func (s *SpillSet) logAdd(i int, a Addr) {
	l := s.log
	if !l.add(i, a, s.ShardLen(i)) {
		l.runs[i] = nil
		return
	}
	if l.rf == nil || len(l.shards[i]) < s.budget || s.failed.Load() {
		return
	}
	SortAddrs(l.shards[i])
	run, err := l.rf.WriteRun(l.shards[i])
	if err != nil {
		s.fail(err)
		return
	}
	l.runs[i] = append(l.runs[i], &run)
	l.shards[i] = l.shards[i][:0]
}

// StartLog starts, or restarts empty, the log of added addresses. A
// spilled set creates the log's scratch file on the first call and empties
// it on later ones; failing to create or empty it latches the sticky
// error and keeps logs resident.
func (s *SpillSet) StartLog() {
	if s.log == nil {
		s.log = &spillLog{}
		if s.rf != nil {
			rf, err := OpenRunFile(s.dir, "ip6-log-*.runs")
			if err != nil {
				s.fail(err)
			}
			s.log.rf = rf
		}
	} else if s.log.rf != nil {
		if err := s.log.rf.truncate(); err != nil {
			s.fail(err)
		}
	}
	s.log.start()
	s.log.runs = [AddrShards][]*Run{}
}

// LogComplete reports whether the log holds everything added since
// StartLog: it was started and no shard's log outgrew its bound.
func (s *SpillSet) LogComplete() bool { return s.log != nil && s.log.complete() }

// LogLen returns how many addresses shard i's log holds; only while
// LogComplete.
func (s *SpillSet) LogLen(i int) int { return s.log.n[i] }

// LogSource returns shard i's logged addresses in ascending order: its
// spilled log runs merged with the resident part, sorted in place. Only
// while LogComplete, and the shard must not be mutated while the source
// is in use.
func (s *SpillSet) LogSource(i int) Source {
	l := s.log
	SortAddrs(l.shards[i])
	srcs := []Source{NewSliceSource(l.shards[i])}
	for _, r := range l.runs[i] {
		srcs = append(srcs, l.rf.reader(r))
	}
	return Merge(srcs...)
}

// Has reports membership.
func (s *SpillSet) Has(a Addr) bool { return s.HasInShard(ShardOf(a), a) }

// HasInShard reports membership of a in shard i: Δ, then a binary search
// of the column or of each run's fence index.
func (s *SpillSet) HasInShard(i int, a Addr) bool {
	sh := &s.shards[i]
	return sh.delta.Has(a) || hasSorted(sh.col, a) || s.inRuns(i, a)
}

// inRuns reports whether a is in one of shard i's runs.
func (s *SpillSet) inRuns(i int, a Addr) bool {
	sh := &s.shards[i]
	// Newest runs first: recent inserts are the likelier probes.
	for j := len(sh.runs) - 1; j >= 0; j-- {
		ok, err := sh.runs[j].Has(s.rf, a, &sh.scratch)
		if err != nil {
			s.fail(err)
			return false
		}
		if ok {
			return true
		}
	}
	return false
}

// Len returns the total cardinality across shards.
func (s *SpillSet) Len() int {
	n := 0
	for i := range s.shards {
		n += s.ShardLen(i)
	}
	return n
}

// ShardLen returns the cardinality of shard i.
func (s *SpillSet) ShardLen(i int) int {
	sh := &s.shards[i]
	return len(sh.col) + sh.ondisk + len(sh.delta)
}

// Column returns shard i's resident column, and whether it holds the
// whole shard: false when the set is spilled or the shard has a pending
// Δ. Treat it as read-only; it stays valid, and unchanged, after later
// inserts.
func (s *SpillSet) Column(i int) ([]Addr, bool) {
	sh := &s.shards[i]
	return sh.col, s.rf == nil && len(sh.delta) == 0
}

// ShardSource returns shard i's members in ascending order: the column
// or the runs, merged with a sorted copy of the Δ. The shard must not be
// mutated while the source is in use; a read error comes back through
// the source.
func (s *SpillSet) ShardSource(i int) Source {
	sh := &s.shards[i]
	var srcs []Source
	if len(sh.col) > 0 {
		srcs = append(srcs, NewSliceSource(sh.col))
	}
	for _, r := range sh.runs {
		srcs = append(srcs, s.rf.reader(r))
	}
	if len(sh.delta) > 0 {
		srcs = append(srcs, NewSliceSource(sh.delta.Sorted()))
	}
	return Merge(srcs...)
}

// View returns the set as a SortedShardSet. A resident set first folds
// every pending Δ into its column, then its columns are wrapped without a
// copy: a shard that gained nothing since an earlier view is the very
// same slice there, and one that did is a fresh array. A spilled set's
// shards are read back from their runs into fresh slices. The view does
// not change when the set grows afterwards. Like Compact, View must run
// outside per-shard sweeps.
func (s *SpillSet) View() (*SortedShardSet, error) {
	var shards [AddrShards][]Addr
	if s.rf == nil {
		s.foldShards(true)
		for i := range shards {
			shards[i] = s.shards[i].col
		}
		return SortedFromShards(shards), nil
	}
	for i := range shards {
		col, err := AppendAll(make([]Addr, 0, s.ShardLen(i)), s.ShardSource(i))
		if err != nil {
			return nil, err
		}
		shards[i] = col
	}
	return SortedFromShards(shards), nil
}

// ImportShardSorted bulk-loads shard i from a source yielding strictly
// ascending addresses (every one hashing to shard i); n is the expected
// count, a capacity hint. The shard must be empty — this is the
// checkpoint-restore path, not an insert path — and on a spilled set the
// run writer claims the scratch file's tail, so imports must run serially
// across shards. A spilled shard loads as one frozen run without counting
// toward FrozenRuns (a reload is not a spill).
func (s *SpillSet) ImportShardSorted(i, n int, src Source) error {
	sh := &s.shards[i]
	if s.ShardLen(i) != 0 {
		return fmt.Errorf("ip6: importing into non-empty shard %d", i)
	}
	if s.rf == nil {
		col, err := AppendAll(make([]Addr, 0, n), src)
		if err != nil {
			return err
		}
		sh.col = col
		return nil
	}
	run, err := s.rf.writeFrom(src, make([]Addr, max(min(n, writeChunk), 1)))
	if err != nil {
		s.fail(err)
		return err
	}
	if run.count > 0 {
		sh.runs = append(sh.runs, &run)
		sh.ondisk = run.count
	}
	return nil
}

// Merge materializes the whole set as a flat Set — the compat view for
// analyses that need one. Its output, like a spilled set's View, is not
// memory-bounded; larger-than-memory consumers should stream ShardSource.
func (s *SpillSet) Merge() Set {
	out := NewSet(s.Len())
	buf := make([]Addr, runChunk)
	for i := range s.shards {
		sh := &s.shards[i]
		out.AddSlice(sh.col)
		out.AddAll(sh.delta)
		for _, r := range sh.runs {
			if err := Drain(s.rf.reader(r), buf, func(c []Addr) error {
				out.AddSlice(c)
				return nil
			}); err != nil {
				s.fail(err)
			}
		}
	}
	return out
}

// rotateMinDead is the dead-space floor below which Compact keeps
// appending instead of rewriting into a fresh file.
const rotateMinDead = 4 << 20

// foldRatio and foldFloor bound a resident shard's Δ against its column:
// Compact folds a Δ once it holds more than foldFloor addresses and more
// than 1/foldRatio of the column's. Folding copies the whole column and
// sorts the Δ, so a set that gains a few addresses per shard between
// compactions (every cumulative set, every scan) copies each address
// about foldRatio times over its lifetime instead of once per
// compaction, and no fold is for a handful of addresses; a smaller ratio
// copies less but lets the map-backed Δ grow toward the column's size. A
// view folds every Δ.
const (
	foldRatio = 4
	foldFloor = 64
)

// Compact folds the set down, membership unchanged. A resident set folds
// each shard's Δ that has outgrown foldFloor and its column's
// 1/foldRatio into a fresh column (foldShards). A spilled set merges every
// shard's runs into at most one, bounding point lookups at one fence
// search per shard; its Δs stay resident (they are under budget by
// construction). The run file is append-only, so superseded runs
// accumulate as dead bytes; once dead space exceeds the live data (and a
// small floor), Compact rewrites the live runs into a fresh scratch file
// and drops the old one — bounding scratch disk at roughly 2× the set's
// size instead of growing with every merge. Compact must run outside
// per-shard sweeps.
func (s *SpillSet) Compact() error {
	if s.rf == nil {
		s.foldShards(false)
		return nil
	}
	var live int64
	for i := range s.shards {
		live += int64(s.shards[i].ondisk) * AddrBytes
	}
	if dead := s.rf.Size() - live; dead > live && dead > rotateMinDead {
		// Rotation merges every shard (fan-in 1 included) into the fresh
		// file, so it subsumes the in-place pass.
		if err := s.rotate(); err != nil {
			s.fail(err)
			return err
		}
		return s.Err()
	}
	var buf []Addr
	for i := range s.shards {
		sh := &s.shards[i]
		if len(sh.runs) < 2 {
			continue
		}
		if buf == nil {
			buf = make([]Addr, writeChunk)
		}
		run, err := s.rf.writeFrom(s.rf.Merge(sh.runs), buf)
		if err != nil {
			s.fail(err)
			return err
		}
		sh.runs = sh.runs[:0]
		if run.count > 0 {
			sh.runs = append(sh.runs, &run)
		}
		sh.ondisk = run.count
	}
	return s.Err()
}

// foldShards folds, shards in parallel, every resident shard's Δ that
// is due (foldDue) into a fresh column; any other shard keeps its very
// slice.
func (s *SpillSet) foldShards(force bool) {
	for i := range s.shards {
		if s.foldDue(i, force) {
			ParallelShards(runtime.GOMAXPROCS(0), func(i int) {
				if sh := &s.shards[i]; s.foldDue(i, force) {
					sh.col = merged(sh.col, sh.delta.Sorted())
					sh.delta = nil
				}
			})
			return
		}
	}
}

// foldDue reports whether resident shard i's Δ is to fold: when it has
// outgrown foldFloor and its column's 1/foldRatio, or with force when it
// is not empty.
func (s *SpillSet) foldDue(i int, force bool) bool {
	n := len(s.shards[i].delta)
	return n > 0 && (force || n > foldFloor && n*foldRatio > len(s.shards[i].col))
}

// rotate rewrites every shard's live runs into a fresh scratch file and
// removes the old one. Shard state swaps only after every merge
// succeeded, so a mid-rotation failure leaves the set fully on the old
// file (the fresh one is dropped) — never split across both.
func (s *SpillSet) rotate() error {
	fresh, err := OpenRunFile(s.dir, "ip6-spill-*.runs")
	if err != nil {
		return err
	}
	var staged [AddrShards]*Run
	buf := make([]Addr, writeChunk)
	for i := range s.shards {
		sh := &s.shards[i]
		if len(sh.runs) == 0 {
			continue
		}
		run, err := fresh.writeFrom(s.rf.Merge(sh.runs), buf)
		if err != nil {
			fresh.Close()
			return err
		}
		if run.count > 0 {
			staged[i] = &run
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.runs = sh.runs[:0]
		sh.ondisk = 0
		if staged[i] != nil {
			sh.runs = append(sh.runs, staged[i])
			sh.ondisk = staged[i].count
		}
	}
	old := s.rf
	s.rf = fresh
	return old.Close()
}

var _ io.Closer = (*SpillSet)(nil)
