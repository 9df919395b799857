package hlfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"

	"hitlist6/internal/ip6"
	"hitlist6/internal/scan"
)

// Reader is an open .hl6 image. Open maps a whole file when the
// platform supports it (reads then touch pages on demand and the OS page
// cache is the only buffer) and serves it through ReadAt otherwise;
// NewReader serves an image embedded in something larger — a checkpoint
// segment's section — through ReadAt. Either way no address is resident
// until a consumer pulls it. A Reader is safe for concurrent shard
// sources — the scan engine pulls each shard from its own worker.
type Reader struct {
	ra     io.ReaderAt
	f      *os.File // the file Open opened, closed by Close; nil for NewReader
	data   []byte   // non-nil iff mmap succeeded
	counts [ip6.AddrShards]int
	starts [ip6.AddrShards + 1]int64 // cumulative address index of each shard
	total  int64
}

// Open validates the header against the file size and maps the file.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.f = f
	// Best-effort mmap; ReadAt covers platforms (and failures) without it.
	r.data = mmapFile(f, st.Size())
	return r, nil
}

// NewReader validates the header of the size-byte image readable through
// ra against its size and serves it through ReadAt. ra stays the
// caller's: Close does not close it.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	if size < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, smaller than the %d-byte header", ErrFormat, size, headerSize)
	}
	hdr := make([]byte, headerSize)
	if _, err := ra.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("hlfile: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != Version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrFormat, v, Version)
	}
	if s := binary.LittleEndian.Uint32(hdr[8:]); s != ip6.AddrShards {
		return nil, fmt.Errorf("%w: %d shards, want %d", ErrFormat, s, ip6.AddrShards)
	}
	r := &Reader{ra: ra}
	for i := 0; i < ip6.AddrShards; i++ {
		c := binary.LittleEndian.Uint64(hdr[16+8*i:])
		if c > uint64(size)/ip6.AddrBytes {
			return nil, fmt.Errorf("%w: shard %d count %d exceeds file size", ErrFormat, i, c)
		}
		r.counts[i] = int(c)
		r.starts[i+1] = r.starts[i] + int64(c)
	}
	r.total = r.starts[ip6.AddrShards]
	if want := headerSize + r.total*ip6.AddrBytes; size != want {
		return nil, fmt.Errorf("%w: %d bytes, header implies %d (truncated or trailing garbage)", ErrFormat, size, want)
	}
	return r, nil
}

// Close unmaps and closes the file Open opened; for a NewReader it
// releases nothing.
func (r *Reader) Close() error {
	if r.data != nil {
		munmapFile(r.data)
		r.data = nil
	}
	if r.f == nil {
		return nil
	}
	return r.f.Close()
}

// Len returns the total address count.
func (r *Reader) Len() int { return int(r.total) }

// ShardLen returns shard sh's address count.
func (r *Reader) ShardLen(sh int) int { return r.counts[sh] }

// Mapped reports whether the body is memory-mapped (as opposed to served
// through ReadAt).
func (r *Reader) Mapped() bool { return r.data != nil }

// shardSpan returns shard sh's addresses as a zero-copy view into the
// mapped body, or nil without mmap. ip6.Addr is [16]byte (alignment 1),
// so reinterpreting the mapped bytes is layout-safe; the view is
// read-only and valid until Close.
func (r *Reader) shardSpan(sh int) []ip6.Addr {
	if r.data == nil || r.counts[sh] == 0 {
		return nil
	}
	off := headerSize + r.starts[sh]*ip6.AddrBytes
	return unsafe.Slice((*ip6.Addr)(unsafe.Pointer(&r.data[off])), r.counts[sh])
}

// readAddrs fills buf with addresses [idx, idx+len(buf)) of the body:
// copied out of the mapping, or read straight into buf.
func (r *Reader) readAddrs(idx int64, buf []ip6.Addr) error {
	off := headerSize + idx*ip6.AddrBytes
	if r.data != nil {
		copy(ip6.RawBytes(buf), r.data[off:])
		return nil
	}
	if len(buf) == 0 {
		return nil
	}
	if _, err := r.ra.ReadAt(ip6.RawBytes(buf), off); err != nil {
		return fmt.Errorf("hlfile: reading body: %w", err)
	}
	return nil
}

// SortedSet returns the file's addresses as a frozen point-lookup index
// (the body is already sorted and sharded exactly like
// ip6.SortedShardSet wants). With mmap every per-shard slice is a
// zero-copy view into the mapped body — the index of a multi-million
// address hitlist costs no resident memory beyond the page cache, but
// it is only valid until Close. Without mmap each shard is read into
// memory once.
func (r *Reader) SortedSet() (*ip6.SortedShardSet, error) {
	var shards [ip6.AddrShards][]ip6.Addr
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if r.counts[sh] == 0 {
			continue
		}
		if span := r.shardSpan(sh); span != nil {
			shards[sh] = span
			continue
		}
		buf := make([]ip6.Addr, r.counts[sh])
		if err := r.readAddrs(r.starts[sh], buf); err != nil {
			return nil, err
		}
		shards[sh] = buf
	}
	return ip6.SortedFromShards(shards), nil
}

// ShardSource returns a source over shard sh's addresses in file order
// (sorted ascending, duplicate-free by format contract): spans of the
// mapping itself when the file is mapped, else ReadAt straight into the
// caller's buffer. It holds no buffer of its own whatever the shard's
// size, so the checkpoint-restore path feeds these straight into resident
// sets or SpillSet.ImportShardSorted, and the scan engine probes mapped
// shards out of the page cache.
func (r *Reader) ShardSource(sh int) ip6.Source {
	if span := r.shardSpan(sh); span != nil {
		return ip6.NewSliceSource(span)
	}
	return &shardReader{r: r, idx: r.starts[sh], left: r.counts[sh]}
}

// Source returns a fresh TargetSource over the whole file. The returned
// source implements scan.ShardedSource, so Scanner.StreamFrom hands each
// probe worker its shard's run directly; with mmap the per-shard sources
// also serve zero-copy spans. Closing the
// source does not close the reader — use OpenSource for a self-owning
// stream.
func (r *Reader) Source() scan.TargetSource { return newFileSource(r, false) }

// OpenSource opens path and returns a source that owns the reader: the
// scan engine's close-on-stream-end then releases the file too.
func OpenSource(path string) (scan.TargetSource, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	return newFileSource(r, true), nil
}

// fileSource walks the file in canonical shard order for generic Next
// pulls and hands out per-shard sources for the engine's sharded path.
type fileSource struct {
	shardReader // the whole body, for Next pulls
	owned       bool
}

func newFileSource(r *Reader, owned bool) *fileSource {
	return &fileSource{shardReader: shardReader{r: r, left: int(r.total)}, owned: owned}
}

var _ scan.ShardedSource = (*fileSource)(nil)

func (s *fileSource) ShardSource(sh int) scan.TargetSource {
	if s.r.counts[sh] == 0 {
		return nil
	}
	return s.r.ShardSource(sh)
}

func (s *fileSource) Close() error {
	if s.owned {
		return s.r.Close()
	}
	return nil
}

// shardReader serves a run of the body, a shard or all of it, through
// readAddrs.
type shardReader struct {
	r    *Reader
	idx  int64
	left int
}

func (c *shardReader) Next(buf []ip6.Addr) (int, error) {
	if c.left == 0 {
		return 0, io.EOF
	}
	n := min(len(buf), c.left)
	if err := c.r.readAddrs(c.idx, buf[:n]); err != nil {
		return 0, err
	}
	c.idx += int64(n)
	c.left -= n
	if c.left == 0 {
		return n, io.EOF
	}
	return n, nil
}
