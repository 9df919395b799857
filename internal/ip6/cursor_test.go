package ip6

import (
	"errors"
	"slices"
	"testing"

	"hitlist6/internal/rng"
)

// drainCursor pulls next to its end or its first error.
func drainCursor(next Cursor) ([]Addr, error) {
	var out []Addr
	for {
		a, ok, err := next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, a)
	}
}

// sortDedup is the reference merge: sort, then drop repeats.
func sortDedup(addrs []Addr) []Addr {
	out := slices.Clone(addrs)
	SortAddrs(out)
	return slices.Compact(out)
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

// TestRunFileMergeCursorsMatchesReference merges random sorted runs —
// none, one or several, some empty, with duplicates inside a run and
// across runs — through RunFile.Merge and through MergeCursors over
// slice cursors, and compares each with a sort-and-dedup of the runs'
// concatenation. A failing input ends the merge with its
// error after exactly the addresses merged ahead of it.
func TestRunFileMergeCursorsMatchesReference(t *testing.T) {
	rf, err := OpenRunFile(t.TempDir(), "runs-*")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()

	r := rng.NewStream(17, "merge-cursors")
	for trial := 0; trial < 120; trial++ {
		k := trial % 6
		var runs []*Run
		var slicesIn [][]Addr
		var all []Addr
		for j := 0; j < k; j++ {
			// A narrow value range forces duplicates; every other trial
			// has an empty second run, and every fourth run is long
			// enough to span several RunFile.Cursor chunks.
			n := r.Intn(40)
			switch {
			case j == 1 && trial%2 == 0:
				n = 0
			case j%4 == 3:
				n = 2*runChunk + r.Intn(runChunk)
			}
			span := uint64(64 + r.Intn(4*runChunk))
			addrs := make([]Addr, n)
			for i := range addrs {
				addrs[i] = AddrFromUint64s(0x2001_0db8<<32, r.Uint64n(span))
			}
			SortAddrs(addrs)
			run, err := rf.WriteRun(addrs)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, &run)
			slicesIn = append(slicesIn, addrs)
			all = append(all, addrs...)
		}
		want := sortDedup(all)

		got, err := drainCursor(rf.Merge(runs))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		requireAddrs(t, "run cursors", got, want)

		var curs []Cursor
		for _, s := range slicesIn {
			curs = append(curs, SliceCursor(s))
		}
		got, err = drainCursor(MergeCursors(curs...))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		requireAddrs(t, "slice cursors", got, want)
	}

	// An exhausted merge stays exhausted.
	next := MergeCursors(SliceCursor([]Addr{MustParseAddr("2001:db8::1")}))
	next()
	for i := 0; i < 2; i++ {
		if a, ok, err := next(); ok || err != nil {
			t.Fatalf("pull past end: %v %v %v", a, ok, err)
		}
	}

	addr := func(lo uint64) Addr { return AddrFromUint64s(0x2001_0db8<<32, lo) }
	boom := errors.New("boom")
	// failAfter yields addrs, then fails.
	failAfter := func(addrs ...Addr) Cursor {
		next := SliceCursor(addrs)
		return func() (Addr, bool, error) {
			if a, ok, _ := next(); ok {
				return a, true, nil
			}
			return Addr{}, false, boom
		}
	}
	next = MergeCursors(failAfter(addr(2), addr(4), addr(6)), SliceCursor([]Addr{addr(3), addr(10), addr(11)}))
	got, err := drainCursor(next)
	if !errors.Is(err, boom) {
		t.Fatalf("mid-merge error: got %v, want %v", err, boom)
	}
	requireAddrs(t, "before error", got, []Addr{addr(2), addr(3), addr(4), addr(6)})
	for i := 0; i < 2; i++ {
		if a, ok, err := next(); ok || !errors.Is(err, boom) {
			t.Fatalf("pull after error: %v %v %v, want the error again", a, ok, err)
		}
	}
	if got, err := drainCursor(MergeCursors(SliceCursor([]Addr{addr(1)}), failAfter())); len(got) != 0 || !errors.Is(err, boom) {
		t.Fatalf("error on the first read: got %v, %v", got, err)
	}

	// A read error from the run file itself: the merge emits the first
	// chunk it read, then returns the error.
	broken, err := OpenRunFile(t.TempDir(), "runs-*")
	if err != nil {
		t.Fatal(err)
	}
	long := make([]Addr, 2*runChunk)
	for i := range long {
		long[i] = addr(uint64(i))
	}
	run, err := broken.WriteRun(long)
	if err != nil {
		t.Fatal(err)
	}
	next = MergeCursors(broken.Cursor(&run))
	broken.Close()
	got, err = drainCursor(next)
	if err == nil {
		t.Fatal("merge over a closed run file: no error")
	}
	requireAddrs(t, "before read error", got, long[:runChunk])
}
