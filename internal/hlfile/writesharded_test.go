package hlfile_test

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"testing"

	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
)

// shardRuns splits sorted, duplicate-free addresses into their shards'
// runs and declared counts.
func shardRuns(addrs []ip6.Addr) (*[ip6.AddrShards][]ip6.Addr, *[ip6.AddrShards]uint64) {
	var runs [ip6.AddrShards][]ip6.Addr
	var counts [ip6.AddrShards]uint64
	for _, a := range addrs {
		sh := ip6.ShardOf(a)
		runs[sh] = append(runs[sh], a)
		counts[sh]++
	}
	return &runs, &counts
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit int }

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errDiskFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestWriteShardedMatchesWriter: shards handed to WriteSharded in runs —
// several per shard — produce the same image as the sorting Writer.
func TestWriteShardedMatchesWriter(t *testing.T) {
	addrs := testAddrs(5, 20000)
	want, err := os.ReadFile(writeFile(t, addrs, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	runs, counts := shardRuns(sortedUnique(addrs))
	var got bytes.Buffer
	err = hlfile.WriteSharded(&got, counts, func(put func(int, []ip6.Addr) error) error {
		for sh, run := range runs {
			half := len(run) / 2
			if err := put(sh, run[:half]); err != nil {
				return err
			}
			if err := put(sh, run[half:]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteSharded image differs from Writer's (%d vs %d bytes)", got.Len(), len(want))
	}
}

// TestWriterMatchesWriteSharded: whatever the budget — a spill on every
// address, a few addresses per spill, shards streamed and shards merged
// in groups, one group, no spill before Finish — and the worker count,
// the Writer's file is byte-equal to WriteSharded of the sorted,
// deduplicated input, with duplicates inside runs and across them.
func TestWriterMatchesWriteSharded(t *testing.T) {
	addrs := testAddrs(9, 6000)           // repeats an address at once every 11
	addrs = append(addrs, addrs[:500]...) // and repeats early ones in later runs
	runs, counts := shardRuns(sortedUnique(addrs))
	var want bytes.Buffer
	err := hlfile.WriteSharded(&want, counts, func(put func(int, []ip6.Addr) error) error {
		for sh, run := range runs {
			if err := put(sh, run); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, budget := range []int{1, 7, 100, 1000, hlfile.DefaultWriterBudget} {
			got, err := os.ReadFile(writeFile(t, addrs, budget))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("GOMAXPROCS %d, budget %d: Writer image differs from WriteSharded's (%d vs %d bytes)", procs, budget, len(got), want.Len())
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestWriteShardedRefuses: a shard out of order or out of range, a count
// that disagrees with the header, and a failing writer are errors, and
// WriteSharded returns the writer's or the count's error.
func TestWriteShardedRefuses(t *testing.T) {
	runs, counts := shardRuns(sortedUnique(testAddrs(6, 5000)))
	all := func(put func(int, []ip6.Addr) error) error {
		for sh := range runs {
			if err := put(sh, runs[sh]); err != nil {
				return err
			}
		}
		return nil
	}
	bump := func(sh, d int) *[ip6.AddrShards]uint64 {
		c := *counts
		c[sh] = uint64(int(c[sh]) + d)
		return &c
	}
	for _, tc := range []struct {
		name   string
		limit  int // bytes the writer accepts
		counts *[ip6.AddrShards]uint64
		body   func(put func(int, []ip6.Addr) error) error
	}{
		// Counts that fit the runs, so only the order check can object.
		{"shard out of order", 1 << 30, &[ip6.AddrShards]uint64{5: uint64(len(runs[3]) + len(runs[5]))}, func(put func(int, []ip6.Addr) error) error {
			if err := put(5, runs[5]); err != nil {
				return err
			}
			return put(3, runs[3])
		}},
		{"shard out of range", 1 << 30, counts, func(put func(int, []ip6.Addr) error) error {
			return put(ip6.AddrShards, nil)
		}},
		{"short shard", 1 << 30, bump(7, 1), all},
		{"long last shard", 1 << 30, bump(ip6.AddrShards-1, -1), all},
		{"header write fails", 100, counts, all},
		{"body write fails", 20 << 10, counts, all},
	} {
		if err := hlfile.WriteSharded(&failingWriter{limit: tc.limit}, tc.counts, tc.body); err == nil {
			t.Errorf("%s: WriteSharded succeeded", tc.name)
		}
	}

	for _, tc := range []struct {
		name   string
		limit  int
		counts *[ip6.AddrShards]uint64
		want   error // nil: any error
	}{
		{"body write fails", 20 << 10, counts, errDiskFull},
		{"short shard", 1 << 30, bump(7, 1), nil},
	} {
		err := hlfile.WriteSharded(&failingWriter{limit: tc.limit}, tc.counts, all)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}
