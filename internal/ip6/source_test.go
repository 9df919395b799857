package ip6

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"hitlist6/internal/rng"
)

// drainSource pulls src through a buffer of bs addresses to its end (nil
// error) or its first error, checking the pull contract on the way: no
// pull fills more than the buffer, none returns nothing with no error,
// and an error comes with no address.
func drainSource(src Source, bs int) ([]Addr, error) {
	buf := make([]Addr, bs)
	var out []Addr
	for {
		n, err := src.Next(buf)
		if n < 0 || n > bs {
			return out, fmt.Errorf("pull returned %d addresses into a buffer of %d", n, bs)
		}
		out = append(out, buf[:n]...)
		switch {
		case err == io.EOF:
			return out, nil
		case err != nil && n > 0:
			return out, fmt.Errorf("pull returned %d addresses with %w", n, err)
		case err != nil:
			return out, err
		case n == 0:
			return out, errors.New("pull made no progress")
		}
	}
}

// sortDedup is the reference merge: sort, then drop repeats.
func sortDedup(addrs []Addr) []Addr {
	out := slices.Clone(addrs)
	SortAddrs(out)
	return slices.Compact(out)
}

// upToRef returns the addresses of ascending s not above bound.
func upToRef(s []Addr, bound Addr) []Addr {
	i := 0
	for i < len(s) && !bound.Less(s[i]) {
		i++
	}
	return s[:i]
}

func requireAddrs(t *testing.T, what string, got, want []Addr) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d addrs, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// requireEnded requires two more pulls of src to return nothing and
// want: a merge's end, io.EOF or an error, is sticky.
func requireEnded(t *testing.T, what string, src Source, want error) {
	t.Helper()
	buf := make([]Addr, 4)
	for i := 0; i < 2; i++ {
		if n, err := src.Next(buf); n != 0 || !errors.Is(err, want) {
			t.Fatalf("%s: pull after the end = %d, %v; want 0, %v", what, n, err, want)
		}
	}
}

// chunky is a merge input that yields its addresses in random short
// chunks and then ends with end: beside its last chunk, or with apart on
// a pull of its own. end is io.EOF, an error the input fails with, or
// nil for an input that stalls, returning no address and no error.
type chunky struct {
	rest     []Addr
	r        *rng.Stream
	maxChunk int
	apart    bool
	end      error
}

func (c *chunky) Next(buf []Addr) (int, error) {
	n := copy(buf[:min(len(buf), 1+c.r.Intn(c.maxChunk))], c.rest)
	c.rest = c.rest[n:]
	if len(c.rest) > 0 || n > 0 && (c.apart || c.end == nil) {
		return n, nil
	}
	return n, c.end
}

// randomLists draws k ascending lists with repeats inside and across
// them: a narrow value range forces duplicates, and long lists span
// several chunks of a merge's pull.
func randomLists(r *rng.Stream, k int) [][]Addr {
	span := uint64(64 + r.Intn(4*runChunk))
	lists := make([][]Addr, k)
	for j := range lists {
		n := r.Intn(40)
		switch {
		case r.Intn(5) == 0:
			n = 0
		case k <= 3 && r.Intn(3) == 0:
			n = 2*runChunk + r.Intn(runChunk)
		case r.Intn(8) == 0:
			n = runChunk + r.Intn(runChunk)
		}
		list := make([]Addr, n)
		for i := range list {
			list[i] = AddrFromUint64s(0x2001_0db8<<32, r.Uint64n(span))
		}
		SortAddrs(list)
		lists[j] = list
	}
	return lists
}

// chunkyInputs returns an input over each list with a random chunk
// bound and a random way of ending with end.
func chunkyInputs(r *rng.Stream, lists [][]Addr, end error) []*chunky {
	ins := make([]*chunky, len(lists))
	for j, l := range lists {
		ins[j] = &chunky{rest: l, r: r, maxChunk: []int{1, 5, 50, 2 * runChunk}[r.Intn(4)], apart: r.Intn(2) == 0, end: end}
	}
	return ins
}

func asSources(ins []*chunky) []Source {
	srcs := make([]Source, len(ins))
	for j, in := range ins {
		srcs[j] = in
	}
	return srcs
}

// mergeBuffers are the caller buffer lengths every merge case is pulled
// through: around a leaf's chunk, and far below it.
var mergeBuffers = []int{1, 3, runChunk - 1, runChunk, runChunk + 1}

// TestMergeMatchesReference holds Merge to a map-and-sort reference:
// random ascending inputs with repeats inside and across them, at fan-in
// 0, 1, 2, 3 and 64, each input yielding random short chunks and ending
// beside its last chunk or on a pull of its own, pulled through caller
// buffers far below and around a leaf's chunk. An input that fails after
// k addresses, a run file whose read fails mid-run, and an input that
// stalls each end the merge with exactly the merged addresses up to that
// input's last one, then the error on every later pull. The run-file
// cases merge random runs, some empty and some spanning several chunks,
// through RunFile.Merge.
func TestMergeMatchesReference(t *testing.T) {
	r := rng.NewStream(17, "merge")
	boom := errors.New("boom")
	for _, k := range []int{0, 1, 2, 3, 64} {
		for trial := 0; trial < 12; trial++ {
			lists := randomLists(r, k)
			want := sortDedup(slices.Concat(lists...))
			for _, bs := range mergeBuffers {
				what := fmt.Sprintf("fan-in %d trial %d buffer %d", k, trial, bs)
				m := Merge(asSources(chunkyInputs(r, lists, io.EOF))...)
				got, err := drainSource(m, bs)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				requireAddrs(t, what, got, want)
				requireEnded(t, what, m, io.EOF)
				if k == 0 {
					continue
				}

				// One input fails after its first cut addresses, or stalls
				// there: the merge yields everything up to the last of them.
				f := r.Intn(k)
				cut := r.Intn(len(lists[f]) + 1)
				for _, end := range []error{boom, nil} {
					ins := chunkyInputs(r, lists, io.EOF)
					ins[f].rest, ins[f].end = lists[f][:cut], end
					wantErr, label := boom, "failing"
					if end == nil {
						wantErr, label = errNoProgress, "stalling"
					}
					var wantCut []Addr
					if cut > 0 {
						wantCut = upToRef(want, lists[f][cut-1])
					}
					m := Merge(asSources(ins)...)
					got, err := drainSource(m, bs)
					if !errors.Is(err, wantErr) {
						t.Fatalf("%s: %s input %d after %d: merge ended with %v, want %v", what, label, f, cut, err, wantErr)
					}
					requireAddrs(t, fmt.Sprintf("%s: %s input %d after %d", what, label, f, cut), got, wantCut)
					requireEnded(t, what, m, wantErr)
				}
			}
		}
	}

	rf, err := OpenRunFile(t.TempDir(), "runs-*")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	for trial := 0; trial < 60; trial++ {
		lists := randomLists(r, trial%6)
		runs := make([]*Run, len(lists))
		for j, l := range lists {
			run, err := rf.WriteRun(l)
			if err != nil {
				t.Fatal(err)
			}
			runs[j] = &run
		}
		got, err := drainSource(rf.Merge(runs), mergeBuffers[trial%len(mergeBuffers)])
		if err != nil {
			t.Fatalf("runs trial %d: %v", trial, err)
		}
		requireAddrs(t, fmt.Sprintf("runs trial %d", trial), got, sortDedup(slices.Concat(lists...)))
	}

	// A failing input's error waits for what was merged ahead of it.
	addr := func(lo uint64) Addr { return AddrFromUint64s(0x2001_0db8<<32, lo) }
	m := Merge(&chunky{rest: []Addr{addr(2), addr(4), addr(6)}, r: r, maxChunk: 1, end: boom},
		NewSliceSource([]Addr{addr(3), addr(10), addr(11)}))
	got, err := drainSource(m, 8)
	if !errors.Is(err, boom) {
		t.Fatalf("mid-merge error: got %v, want %v", err, boom)
	}
	requireAddrs(t, "before error", got, []Addr{addr(2), addr(3), addr(4), addr(6)})
	requireEnded(t, "after error", m, boom)
	m = Merge(NewSliceSource([]Addr{addr(1)}), &chunky{r: r, maxChunk: 1, end: boom})
	if got, err := drainSource(m, 8); len(got) != 0 || !errors.Is(err, boom) {
		t.Fatalf("error on the first read: got %v, %v", got, err)
	}

	// A read error from the run file itself: a run's first chunk is
	// read, the file goes away, and the merge yields exactly what merges
	// up to the end of that chunk before returning the error.
	for _, bs := range mergeBuffers {
		broken, err := OpenRunFile(t.TempDir(), "runs-*")
		if err != nil {
			t.Fatal(err)
		}
		long := make([]Addr, 3*runChunk)
		for i := range long {
			long[i] = addr(2 * uint64(i))
		}
		run, err := broken.WriteRun(long)
		if err != nil {
			t.Fatal(err)
		}
		odd := make([]Addr, 3*runChunk)
		for i := range odd {
			odd[i] = addr(2*uint64(i) + 1)
		}
		m := Merge(broken.reader(&run), NewSliceSource(odd))
		buf := make([]Addr, bs)
		n, err := m.Next(buf)
		if err != nil {
			t.Fatal(err)
		}
		broken.Close()
		rest, err := drainSource(m, bs)
		if err == nil {
			t.Fatalf("buffer %d: merge over a closed run file: no error", bs)
		}
		what := fmt.Sprintf("buffer %d: before read error", bs)
		requireAddrs(t, what, append(buf[:n:n], rest...), upToRef(sortDedup(append(long, odd...)), long[runChunk-1]))
		requireEnded(t, what, m, err)
	}
}

// BenchmarkMerge merges run-file inputs of about 1 M addresses in total,
// with a tenth of them repeated across runs, at fan-in 2, 8 and 64, and
// reports the cost per address merged.
func BenchmarkMerge(b *testing.B) {
	const total = 1 << 20
	for _, k := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("fanin=%d", k), func(b *testing.B) {
			rf, err := OpenRunFile(b.TempDir(), "bench-*")
			if err != nil {
				b.Fatal(err)
			}
			defer rf.Close()
			r := newBenchStream()
			runs := make([]*Run, k)
			for j := range runs {
				addrs := make([]Addr, total/k)
				for i := range addrs {
					addrs[i] = AddrFromUint64s(0x2001_0db8<<32, r.Uint64n(total*10/9))
				}
				SortAddrs(addrs)
				run, err := rf.WriteRun(addrs)
				if err != nil {
					b.Fatal(err)
				}
				runs[j] = &run
			}
			buf := make([]Addr, writeChunk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Drain(rf.Merge(runs), buf, func([]Addr) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/total, "ns/addr")
		})
	}
}
