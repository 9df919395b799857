package core

import (
	"errors"
	"io"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
)

// pullAll drains src with a buffer size that does not divide the shard
// sizes, returning what it delivered and the error that ended it.
func pullAll(src scan.TargetSource) ([]ip6.Addr, error) {
	var out []ip6.Addr
	buf := make([]ip6.Addr, 7)
	for {
		n, err := src.Next(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return out, err
		}
	}
}

// TestTGAFeedbackSource pins the TGA feedback source: a spilled union
// and a resident union both stream in global ascending order, exactly as
// a sorted materialization would. When a spilled shard's cursor fails,
// the source delivers every address merged ahead of the failure and
// returns the error on the next Next, never io.EOF.
func TestTGAFeedbackSource(t *testing.T) {
	r := rng.NewStream(23, "tga-feedback-source")
	addrs := make([]ip6.Addr, 3000)
	for i := range addrs {
		addrs[i] = ip6.AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()>>40, r.Uint64())
	}
	spilled, err := ip6.NewSpillSet(t.TempDir(), 4) // several runs per shard
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	resident := ip6.NewResidentSet()
	for _, a := range addrs {
		spilled.Add(a)
		resident.Add(a)
	}
	want := resident.Merge().Sorted()

	for _, tc := range []struct {
		name string
		u    *ip6.SpillSet
	}{{"spilled", spilled}, {"resident", resident}} {
		src := sortedUnionSource(tc.u)
		got, err := pullAll(src)
		if err != io.EOF {
			t.Fatalf("%s: ended with %v, want io.EOF", tc.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d addrs, want %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %v, want %v", tc.name, i, got[i], want[i])
			}
		}
		if n, err := src.Next(make([]ip6.Addr, 4)); n != 0 || err != io.EOF {
			t.Fatalf("%s: pull after EOF = %d, %v", tc.name, n, err)
		}
	}

	// A failing shard cursor: shard 5 freezes one run longer than a run
	// cursor's first read (its 3000th insert reaches the budget), and the
	// scratch file is closed under the source, so its second read fails
	// mid-merge. Each shard-5 address comes with its predecessor from
	// another shard, so another shard's address always sits between two
	// of shard 5's.
	failing, err := ip6.NewSpillSet(t.TempDir(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := uint64(1), 0; n < 3000; i++ {
		a := ip6.AddrFromUint64s(0x2001_0db8_0000_0000, i)
		if ip6.ShardOf(a) == 5 && ip6.ShardOf(a.Prev()) != 5 {
			failing.Add(a.Prev())
			failing.Add(a)
			n++
		}
	}
	want = failing.Merge().Sorted()
	src := sortedUnionSource(failing)
	failing.Close()
	got, err := pullAll(src)
	if err == nil || err == io.EOF {
		t.Fatalf("source over a failed shard ended with %v, want the read error", err)
	}
	if len(got) == 0 || len(got) >= len(want) {
		t.Fatalf("delivered %d of %d addresses before the error", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("before error [%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The merge reads shard 5's next chunk only after delivering the
	// last address of the chunk before, so nothing merged is held back.
	if last := got[len(got)-1]; ip6.ShardOf(last) != 5 {
		t.Fatalf("last address before the error is %v in shard %d, want shard 5", last, ip6.ShardOf(last))
	}
	if n, again := src.Next(make([]ip6.Addr, 4)); n != 0 || !errors.Is(again, err) {
		t.Fatalf("pull after error = %d, %v, want %v", n, again, err)
	}
}
