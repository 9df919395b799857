package hlfile_test

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

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
// several per shard, prepared on a ShardPipeline — produce the same image
// as the sorting Writer.
func TestWriteShardedMatchesWriter(t *testing.T) {
	addrs := testAddrs(5, 20000)
	want, err := os.ReadFile(writeFile(t, addrs, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	runs, counts := shardRuns(sortedUnique(addrs))
	for _, workers := range []int{1, 4} {
		var p ip6.ShardPipeline[[]ip6.Addr]
		var got bytes.Buffer
		err := hlfile.WriteSharded(&got, counts, func(put func(int, []ip6.Addr) error) error {
			return p.Run(workers, ^uint64(0), func(sh int, buf *[]ip6.Addr) error {
				*buf = append((*buf)[:0], runs[sh]...)
				return nil
			}, func(sh int, buf *[]ip6.Addr) error {
				half := len(*buf) / 2
				if err := put(sh, (*buf)[:half]); err != nil {
					return err
				}
				return put(sh, (*buf)[half:])
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("workers %d: WriteSharded image differs from Writer's (%d vs %d bytes)", workers, got.Len(), len(want))
		}
	}
}

// TestWriteShardedRefuses: a shard out of order or out of range, a count
// that disagrees with the header, and a failing writer are errors; fed
// by a ShardPipeline, WriteSharded returns the writer's or the count's
// error with no goroutine left behind.
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

	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name   string
		limit  int
		counts *[ip6.AddrShards]uint64
		want   error // nil: any error
	}{
		{"body write fails", 20 << 10, counts, errDiskFull},
		{"short shard", 1 << 30, bump(7, 1), nil},
	} {
		for _, workers := range []int{1, 4} {
			var p ip6.ShardPipeline[[]ip6.Addr]
			err := hlfile.WriteSharded(&failingWriter{limit: tc.limit}, tc.counts, func(put func(int, []ip6.Addr) error) error {
				return p.Run(workers, ^uint64(0), func(sh int, buf *[]ip6.Addr) error {
					*buf = append((*buf)[:0], runs[sh]...)
					return nil
				}, func(sh int, buf *[]ip6.Addr) error { return put(sh, *buf) })
			})
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Errorf("%s, pipeline workers %d: err = %v", tc.name, workers, err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%s, pipeline workers %d: %d goroutines, %d before", tc.name, workers, runtime.NumGoroutine(), base)
				}
				runtime.Gosched()
			}
		}
	}
}
