// Package hlfile defines the .hl6 binary hitlist format — the on-disk
// interchange for hitlist-scale target sets — plus a bounded-memory
// writer that sorts and merges on the worker pool and replaces its
// output only once the file is complete, and an mmap/ReadAt-backed
// reader that plugs straight into the scan engine as a sharded
// TargetSource.
//
// Layout (all integers little-endian):
//
//	offset 0   magic "HL6F"
//	       4   uint16 version (currently 1)
//	       6   uint16 reserved (zero)
//	       8   uint32 shard count (must equal ip6.AddrShards)
//	      12   uint32 reserved (zero)
//	      16   [shards]uint64 per-shard address counts
//	      16+8·shards   body: raw 16-byte addresses, network byte order,
//	                    shard 0's run, then shard 1's, … — each run sorted
//	                    ascending and duplicate-free
//
// Shard membership is ip6.ShardOf, the same canonical partitioning every
// sharded structure in the repository uses, so a reader hands each scan
// worker its shard's run directly off disk: scanning a .hl6 file
// materializes nothing beyond per-pull buffers no matter how many
// millions of addresses it holds. Byte offsets of every shard follow from
// the header's counts, which is the whole per-shard index.
package hlfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"hitlist6/internal/ip6"
)

// magic identifies .hl6 files.
var magic = [4]byte{'H', 'L', '6', 'F'}

// Version is the current format version.
const Version = 1

// headerSize is the fixed prologue plus the per-shard count table.
const headerSize = 16 + 8*ip6.AddrShards

// ErrFormat tags every malformed-file error Open returns (wrapped with
// detail); errors.Is(err, ErrFormat) distinguishes corruption from I/O.
var ErrFormat = errors.New("hlfile: malformed file")

// Writer builds a .hl6 file from addresses in any order, with bounded
// resident memory: incoming addresses buffer per shard, and when the
// resident total reaches the budget every shard buffer freezes to a
// sorted run in a scratch ip6.RunFile. Finish merges each shard's runs —
// deduplicating on the fly — into the output body, then backfills the
// header.
//
// Both phases run on the worker pool (GOMAXPROCS workers). A spill sorts
// and writes the shard buffers concurrently. Finish cuts the shards, in
// canonical order, into groups whose runs hold at most budget addresses
// together; a group's shards merge concurrently into one shared arena
// and are written out in shard order, so the bytes do not depend on the
// worker count. A shard whose runs alone exceed the budget streams
// straight into the body instead. Peak memory is therefore the budget
// plus per-run merge chunks regardless of input size (while a spill
// runs, each worker also holds one shard's sort and write scratch).
//
// A Writer is not safe for concurrent use. Finish writes a temporary file
// next to the output and renames it over path only once every byte is
// written, so a failed Finish leaves any previous file at path intact.
type Writer struct {
	path   string
	rf     *ip6.RunFile
	budget int

	bufs     [ip6.AddrShards][]ip6.Addr
	runs     [ip6.AddrShards][]*ip6.Run
	resident int
	finished bool
}

// DefaultWriterBudget is the resident address budget of NewWriter:
// 1 Mi addresses ≈ 16 MiB.
const DefaultWriterBudget = 1 << 20

// NewWriter creates a writer targeting path with the default budget.
func NewWriter(path string) (*Writer, error) {
	return NewWriterBudget(path, DefaultWriterBudget)
}

// NewWriterBudget creates a writer whose resident buffer is capped at
// budget addresses (minimum 1). The scratch run file lives next to the
// output so spills stay on the same filesystem.
func NewWriterBudget(path string, budget int) (*Writer, error) {
	if budget < 1 {
		budget = 1
	}
	rf, err := ip6.OpenRunFile(filepath.Dir(path), ".hl6-scratch-*")
	if err != nil {
		return nil, err
	}
	return &Writer{path: path, rf: rf, budget: budget}, nil
}

// Add routes one address to its shard buffer, spilling when the resident
// budget fills. Duplicates are allowed; Finish drops them.
func (w *Writer) Add(a ip6.Addr) error {
	sh := ip6.ShardOf(a)
	w.bufs[sh] = append(w.bufs[sh], a)
	w.resident++
	if w.resident >= w.budget {
		return w.spill()
	}
	return nil
}

// AddSlice adds every address.
func (w *Writer) AddSlice(addrs []ip6.Addr) error {
	for _, a := range addrs {
		if err := w.Add(a); err != nil {
			return err
		}
	}
	return nil
}

// spill freezes every non-empty shard buffer as a sorted run, the shards
// sorted and written concurrently (RunFile.WriteRun is safe for that).
func (w *Writer) spill() error {
	var errs [ip6.AddrShards]error
	ip6.ParallelShards(runtime.GOMAXPROCS(0), func(sh int) {
		if len(w.bufs[sh]) == 0 {
			return
		}
		ip6.SortAddrs(w.bufs[sh])
		run, err := w.rf.WriteRun(w.bufs[sh])
		if err != nil {
			errs[sh] = err
			return
		}
		w.runs[sh] = append(w.runs[sh], &run)
		w.bufs[sh] = w.bufs[sh][:0]
	})
	w.resident = 0
	return firstErr(errs[:])
}

// firstErr returns the first non-nil error, in shard order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Abort discards the writer without producing the output file, removing
// the scratch run file — the cleanup path for conversions that fail
// mid-input. No-op after Finish or a prior Abort.
func (w *Writer) Abort() {
	if w.finished {
		return
	}
	w.finished = true
	w.rf.Close()
}

// Finish merges the spilled runs and writes the final file, replacing
// any file at path only on success. The writer cannot be reused
// afterwards; the scratch file is always removed, even on error.
func (w *Writer) Finish() (err error) {
	if w.finished {
		return fmt.Errorf("hlfile: writer already finished")
	}
	w.finished = true
	defer func() {
		if cerr := w.rf.Close(); err == nil {
			err = cerr
		}
	}()
	if err := w.spill(); err != nil {
		return err
	}
	// Every address is in a run now; the drained buffers go, and the
	// merge arena takes their place within the budget.
	w.bufs = [ip6.AddrShards][]ip6.Addr{}

	out, err := createTemp(w.path)
	if err != nil {
		return fmt.Errorf("hlfile: creating %s: %w", w.path, err)
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(out.Name(), w.path)
		}
		if err != nil {
			os.Remove(out.Name())
		}
	}()

	// Placeholder header first; the real counts land after the body is
	// streamed out and known.
	var counts [ip6.AddrShards]uint64
	if err := writeHeader(out, &counts); err != nil {
		return err
	}
	bw := newBodyWriter(out, headerSize)
	if err := w.mergeBody(bw, &counts); err != nil {
		return err
	}
	if err := bw.flush(); err != nil {
		return err
	}
	// Backfill the real counts (writeHeader writes at offset 0).
	return writeHeader(out, &counts)
}

// mergeBody merges every shard's runs into bw in canonical shard order,
// recording each shard's deduplicated count. Consecutive shards whose
// runs hold at most the budget together merge concurrently into one
// arena (each into a slot its run total sizes, the most its merge can
// yield) and are then written in order; a shard over the budget alone
// streams through bw.
func (w *Writer) mergeBody(bw *bodyWriter, counts *[ip6.AddrShards]uint64) error {
	var total [ip6.AddrShards]int
	left := 0 // run addresses in the shards not yet merged
	for sh, runs := range w.runs {
		for _, r := range runs {
			total[sh] += r.Count()
		}
		left += total[sh]
	}
	var arena []ip6.Addr
	var slot [ip6.AddrShards]int // shard sh merges into arena[slot[sh]:]
	var errs [ip6.AddrShards]error
	for lo := 0; lo < ip6.AddrShards; {
		hi, n := lo+1, total[lo]
		for hi < ip6.AddrShards && n+total[hi] <= w.budget {
			n += total[hi]
			hi++
		}
		left -= n
		if n > w.budget {
			if err := w.streamShard(bw, lo, &counts[lo]); err != nil {
				return err
			}
			lo = hi
			continue
		}
		if arena == nil {
			// Sized once: no later group holds more than the budget or
			// than every run still to merge.
			arena = make([]ip6.Addr, min(w.budget, n+left))
		}
		for sh, off := lo, 0; sh < hi; sh++ {
			slot[sh], off = off, off+total[sh]
		}
		ip6.Parallel(runtime.GOMAXPROCS(0), hi-lo, func(i int) {
			sh := lo + i
			counts[sh], errs[sh] = w.mergeShard(sh, arena[slot[sh]:slot[sh]+total[sh]])
		})
		if err := firstErr(errs[lo:hi]); err != nil {
			return err
		}
		for sh := lo; sh < hi; sh++ {
			if err := bw.write(ip6.RawBytes(arena[slot[sh] : slot[sh]+int(counts[sh])])); err != nil {
				return err
			}
		}
		lo = hi
	}
	return nil
}

// mergeShard merges shard sh's runs into dst, which holds their total,
// and returns how many distinct addresses it wrote.
func (w *Writer) mergeShard(sh int, dst []ip6.Addr) (uint64, error) {
	out, err := ip6.AppendAll(dst[:0:len(dst)], w.rf.Merge(w.runs[sh]))
	return uint64(len(out)), err
}

// streamShard merges shard sh's runs straight into bw, counting them in
// *count.
func (w *Writer) streamShard(bw *bodyWriter, sh int, count *uint64) error {
	buf := make([]ip6.Addr, bodyChunk/ip6.AddrBytes)
	return ip6.Drain(w.rf.Merge(w.runs[sh]), buf, func(c []ip6.Addr) error {
		*count += uint64(len(c))
		return bw.write(ip6.RawBytes(c))
	})
}

// createTemp creates a fresh file next to path, to be renamed over it,
// with the permissions os.Create would give path.
func createTemp(path string) (*os.File, error) {
	for {
		name := fmt.Sprintf("%s.tmp-%d-%d", path, os.Getpid(), tempSeq.Add(1))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// tempSeq numbers createTemp's names within the process.
var tempSeq atomic.Uint64

func encodeHeader(counts *[ip6.AddrShards]uint64) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	binary.LittleEndian.PutUint32(hdr[8:], ip6.AddrShards)
	for i, c := range counts {
		binary.LittleEndian.PutUint64(hdr[16+8*i:], c)
	}
	return hdr
}

func writeHeader(f *os.File, counts *[ip6.AddrShards]uint64) error {
	if _, err := f.WriteAt(encodeHeader(counts), 0); err != nil {
		return fmt.Errorf("hlfile: writing header: %w", err)
	}
	return nil
}

// bodyWriter batches sequential body appends into large writes.
type bodyWriter struct {
	f   *os.File
	off int64
	buf []byte
}

// bodyChunk is bodyWriter's batch size.
const bodyChunk = 64 * 1024

func newBodyWriter(f *os.File, off int64) *bodyWriter {
	return &bodyWriter{f: f, off: off, buf: make([]byte, 0, bodyChunk)}
}

// write appends p, passing a slice of at least a batch straight through.
func (b *bodyWriter) write(p []byte) error {
	if len(b.buf)+len(p) > bodyChunk {
		if err := b.flush(); err != nil {
			return err
		}
	}
	if len(p) < bodyChunk {
		b.buf = append(b.buf, p...)
		return nil
	}
	return b.writeAt(p)
}

func (b *bodyWriter) flush() error {
	if err := b.writeAt(b.buf); err != nil {
		return err
	}
	b.buf = b.buf[:0]
	return nil
}

func (b *bodyWriter) writeAt(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if _, err := b.f.WriteAt(p, b.off); err != nil {
		return fmt.Errorf("hlfile: writing body: %w", err)
	}
	b.off += int64(len(p))
	return nil
}

// WriteSharded streams a pre-sharded, pre-sorted address collection as a
// .hl6 image to w. Unlike Writer — which sorts arbitrary input and
// backfills the header with WriteAt — the per-shard counts are declared
// up front, so the whole file flows sequentially through any io.Writer
// (checkpointing wraps a buffered one that tracks size and CRC). body
// hands the addresses to put in runs: put(sh, run) appends run to shard
// sh's body with one Write, shards in canonical order (a shard may take
// several runs), and every shard must receive exactly counts[sh]
// addresses, sorted ascending and duplicate-free. A shard out of order or
// a count mismatch aborts loudly rather than producing a file whose
// header lies.
func WriteSharded(w io.Writer, counts *[ip6.AddrShards]uint64, body func(put func(sh int, run []ip6.Addr) error) error) error {
	if _, err := w.Write(encodeHeader(counts)); err != nil {
		return fmt.Errorf("hlfile: writing header: %w", err)
	}
	cur, n := 0, uint64(0) // the shard being written and its addresses so far
	// finishTo closes every shard below sh, checking its count.
	finishTo := func(sh int) error {
		for ; cur < sh; cur, n = cur+1, 0 {
			if n != counts[cur] {
				return fmt.Errorf("hlfile: shard %d emitted %d addresses, declared %d", cur, n, counts[cur])
			}
		}
		return nil
	}
	put := func(sh int, run []ip6.Addr) error {
		if sh < cur || sh >= ip6.AddrShards {
			return fmt.Errorf("hlfile: shard %d written after shard %d", sh, cur)
		}
		if err := finishTo(sh); err != nil {
			return err
		}
		n += uint64(len(run))
		if _, err := w.Write(ip6.RawBytes(run)); err != nil {
			return fmt.Errorf("hlfile: writing body: %w", err)
		}
		return nil
	}
	if err := body(put); err != nil {
		return err
	}
	return finishTo(ip6.AddrShards)
}

// Write converts a materialized address slice to a .hl6 file — the
// convenience path for tests and small conversions.
func Write(path string, addrs []ip6.Addr) error {
	w, err := NewWriter(path)
	if err != nil {
		return err
	}
	if err := w.AddSlice(addrs); err != nil {
		w.Abort()
		return err
	}
	return w.Finish()
}
