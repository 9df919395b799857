package ip6

import (
	"errors"
	"io"
	"math/bits"
	"sort"
	"sync"
)

// Source is a pull stream of addresses, the one shape every address
// stream has: a spilled run, a .hl6 shard, a resident column, the merge
// of any of them (Merge), and every producer of scan targets
// (scan.TargetSource is this type).
//
// Next fills buf with up to len(buf) addresses and returns how many it
// wrote. Exhaustion is signaled with io.EOF, which may accompany the
// final addresses (n > 0); after io.EOF further calls return (0, io.EOF).
// Any other error ends the stream; addresses returned with it are valid.
// Next must never return n == 0 with a nil error. Implementations must be
// deterministic: the emitted address sequence depends only on the
// source's construction, never on pull timing or buffer sizes — that is
// what makes every consumer of the streaming engine bit-reproducible.
//
// Sources are pulled from one goroutine at a time and need no internal
// locking. A source that holds resources (a file, a generator goroutine)
// may implement io.Closer; the scan engine closes such sources when the
// stream ends, including on error or cancellation.
type Source interface {
	Next(buf []Addr) (n int, err error)
}

// errNoProgress fails a pull whose source returned neither an address
// nor an error.
var errNoProgress = errors.New("ip6: source made no progress")

// SliceSource serves a slice as a Source. Span hands out sub-slices of
// the slice itself, the copy-free path of the scan engine and of Drain,
// so the slice must not change while the source is in use. The zero
// SliceSource is empty.
type SliceSource struct{ rest []Addr }

// NewSliceSource returns a source over addrs.
func NewSliceSource(addrs []Addr) *SliceSource { return &SliceSource{rest: addrs} }

// Next copies the next addresses into buf.
func (s *SliceSource) Next(buf []Addr) (int, error) {
	n := copy(buf, s.rest)
	s.rest = s.rest[n:]
	if len(s.rest) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// Len returns how many addresses are left.
func (s *SliceSource) Len() int { return len(s.rest) }

// Span returns the next up to max addresses as a sub-slice of the
// source's slice, with io.EOF once nothing is left after them.
func (s *SliceSource) Span(max int) ([]Addr, error) {
	seg := s.rest[:min(max, len(s.rest))]
	s.rest = s.rest[len(seg):]
	if len(s.rest) == 0 {
		return seg, io.EOF
	}
	return seg, nil
}

// Drain pulls src to its end, handing fn every non-empty chunk in order:
// spans of the source's own storage when it serves them (SliceSource, a
// mapped .hl6 shard), else buf filled by Next. An error from src or fn
// ends the walk and is returned, after fn saw every address src yielded.
func Drain(src Source, buf []Addr, fn func([]Addr) error) error {
	spanner, _ := src.(interface{ Span(max int) ([]Addr, error) })
	for {
		var seg []Addr
		var err error
		if spanner != nil {
			seg, err = spanner.Span(len(buf))
		} else {
			var n int
			n, err = src.Next(buf)
			seg = buf[:n]
		}
		if len(seg) > 0 {
			if ferr := fn(seg); ferr != nil {
				return ferr
			}
		}
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		case len(seg) == 0:
			return errNoProgress
		}
	}
}

// AppendAll appends every address src yields to dst and returns it,
// pulling straight into dst's spare capacity, so a dst sized to the
// stream is filled without a copy or a reallocation.
func AppendAll(dst []Addr, src Source) ([]Addr, error) {
	var spare [16]Addr // pulled into once dst is full: the stream may be over
	for {
		full := len(dst) == cap(dst)
		buf := dst[len(dst):cap(dst)]
		if full {
			buf = spare[:]
		}
		n, err := src.Next(buf)
		if full {
			dst = append(dst, spare[:n]...)
		} else {
			dst = dst[:len(dst)+n]
		}
		switch {
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return dst, err
		case n == 0:
			return dst, errNoProgress
		}
	}
}

// Merge merges ascending sources into one ascending source, dropping
// duplicates within and across them. One source is pulled straight into
// the caller's buffer and deduplicated in place; two or more are a
// balanced tree of two-way merges (merge2), each pulling its inputs a
// chunk at a time, so no call is made per address and memory is about
// runChunk addresses per input.
//
// An input's error surfaces only after every merged address up to that
// input's last yielded address has gone out, and nothing beyond it; from
// then on the merge returns that error and nothing else. An input that
// returns no address and no error fails the merge. The merge returns an
// error only with n == 0.
func Merge(srcs ...Source) Source {
	switch len(srcs) {
	case 0:
		return NewSliceSource(nil)
	case 1:
		return &dedupSource{src: srcs[0]}
	}
	return mergeOf(srcs)
}

// dedup drops repeats from an ascending stream: last is the address it
// let through last, once emitted is set.
type dedup struct {
	last    Addr
	emitted bool
}

// copy copies the addresses of ascending in that differ from the one let
// through before them into out, as far as out reaches, and returns how
// many it wrote and how many of in it read. out may alias in from the
// same start.
func (d *dedup) copy(out, in []Addr) (n, read int) {
	for read < len(in) && n < len(out) {
		if a := in[read]; !d.emitted || a != d.last {
			out[n] = a
			n++
			d.last, d.emitted = a, true
		}
		read++
	}
	return n, read
}

// dedupSource is the merge of one source.
type dedupSource struct {
	src Source
	dedup
	err error // sticky: io.EOF at the end, or what src failed with
}

func (d *dedupSource) Next(out []Addr) (int, error) {
	for d.err == nil {
		n, err := d.src.Next(out)
		if n == 0 && err == nil {
			err = errNoProgress
		}
		d.err = err
		if n, _ = d.copy(out, out[:n]); n > 0 {
			if d.err == io.EOF {
				return n, io.EOF
			}
			return n, nil // a failure follows on the next pull
		}
	}
	return 0, d.err
}

// head is one input of a two-way merge: its source, the buffer it is
// pulled into, and the part of that buffer not merged yet.
type head struct {
	src Source
	buf []Addr
	cur []Addr
	err error // what src ended with (io.EOF or a failure); nil while it runs
}

// fill pulls h's next chunk once its last one is merged.
func (h *head) fill() {
	if len(h.cur) > 0 || h.err != nil {
		return
	}
	n, err := h.src.Next(h.buf)
	if n == 0 && err == nil {
		err = errNoProgress
	}
	h.cur, h.err = h.buf[:n], err
}

// merge2 is a two-way merge. Each pull refills the inputs whose chunk is
// merged, then takes as the bound the smaller last address of the
// inputs not at EOF: every address up to it is in the chunks at hand,
// and goes out, merged and deduplicated, before either input is pulled
// again.
type merge2 struct {
	in [2]head
	dedup
	err error // sticky: io.EOF at the end, or the failure that ended it
}

// innerChunk is how many addresses a two-way merge pulls from an inner
// merge at a time: its chunks are copies already, so a short one costs
// little, and the tree's memory stays about runChunk per leaf.
const innerChunk = 64

// leafBufs and innerBufs recycle the heads' buffers across merges, such
// as the per-shard merges of one .hl6 write or one compaction: a merge
// returns its buffers once it has ended.
var (
	leafBufs  = sync.Pool{New: func() any { return new([runChunk]Addr) }}
	innerBufs = sync.Pool{New: func() any { return new([innerChunk]Addr) }}
)

// mergeOf builds the merge tree of two or more sources. A leaf input is
// pulled runChunk addresses at a time, or all at once when it reports
// holding fewer (a Len method); an inner merge innerChunk at a time.
func mergeOf(srcs []Source) *merge2 {
	m := &merge2{}
	for i, half := range [2][]Source{srcs[:len(srcs)/2], srcs[len(srcs)/2:]} {
		if len(half) == 1 {
			n := runChunk
			if l, ok := half[0].(interface{ Len() int }); ok {
				n = max(min(n, l.Len()), 1)
			}
			m.in[i] = head{src: half[0], buf: leafBufs.Get().(*[runChunk]Addr)[:n]}
		} else {
			m.in[i] = head{src: mergeOf(half), buf: innerBufs.Get().(*[innerChunk]Addr)[:]}
		}
	}
	return m
}

// release returns the buffers of m and of the merges under it to their
// pools; m has ended and is never pulled again. Idempotent.
func (m *merge2) release() {
	for i := range m.in {
		h := &m.in[i]
		if inner, ok := h.src.(*merge2); ok {
			inner.release()
			if h.buf != nil {
				innerBufs.Put((*[innerChunk]Addr)(h.buf[:innerChunk]))
			}
		} else if h.buf != nil {
			leafBufs.Put((*[runChunk]Addr)(h.buf[:runChunk]))
		}
		h.buf, h.cur = nil, nil
	}
}

func (m *merge2) Next(out []Addr) (int, error) {
	a, b := &m.in[0], &m.in[1]
	n := 0
	for n < len(out) && m.err == nil {
		a.fill()
		b.fill()
		// An input that failed with its chunk merged ends the merge:
		// every address up to its last went out with that chunk.
		for _, h := range m.in {
			if len(h.cur) == 0 && h.err != nil && h.err != io.EOF {
				m.err = h.err
			}
		}
		if m.err != nil {
			break
		}
		if len(a.cur) == 0 && len(b.cur) == 0 {
			m.err = io.EOF
			break
		}
		wa, wb := a.cur, b.cur
		if a.err != io.EOF {
			wb = wb[:upTo(wb, a.cur[len(a.cur)-1])]
		}
		if b.err != io.EOF {
			wa = wa[:upTo(wa, b.cur[len(b.cur)-1])]
		}
		k, i, j := m.merge(out[n:], wa, wb)
		n += k
		a.cur, b.cur = a.cur[i:], b.cur[j:]
	}
	if m.err != nil {
		m.release()
	}
	if n == 0 || m.err == io.EOF {
		return n, m.err
	}
	return n, nil
}

// merge merges ascending wa and wb into out, as far as out reaches,
// dropping repeats, and returns how many addresses it wrote and how many
// of wa and of wb it read. The loop is free of data-dependent branches:
// on interleaved inputs a branch on the comparison would be mispredicted
// about every other address.
func (m *merge2) merge(out, wa, wb []Addr) (n, i, j int) {
	lh, ll := m.last.Hi(), m.last.Lo()
	first := b2i(!m.emitted) // forces the first address out
	for n < len(out) && i < len(wa) && j < len(wb) {
		xh, xl, yh, yl := wa[i].Hi(), wa[i].Lo(), wb[j].Hi(), wb[j].Lo()
		_, lt := bits.Sub64(yl, xl, 0)
		_, lt = bits.Sub64(yh, xh, lt) // 1 iff wb[j] < wa[i]
		zh, zl := xh, xl
		if lt != 0 {
			zh, zl = yh, yl
		}
		i += int(1 - lt)
		j += int(lt) | b2i((xh^yh)|(xl^yl) == 0)
		out[n] = AddrFromUint64s(zh, zl)
		n += b2i((zh^lh)|(zl^ll) != 0) | first
		lh, ll, first = zh, zl, 0
	}
	m.last, m.emitted = AddrFromUint64s(lh, ll), first == 0
	k, read := m.copy(out[n:], wa[i:])
	n, i = n+k, i+read
	k, read = m.copy(out[n:], wb[j:])
	return n + k, i, j + read
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// upTo returns how many addresses of ascending s are not above bound.
func upTo(s []Addr, bound Addr) int {
	if len(s) == 0 || !bound.Less(s[len(s)-1]) {
		return len(s)
	}
	return sort.Search(len(s), func(i int) bool { return bound.Less(s[i]) })
}
