package ip6

import (
	"slices"
	"testing"
)

// FuzzRunFile writes arbitrary addresses as sorted runs with WriteRun
// and through a resident and a budget-1 SpillSet followed by Compact,
// then checks Run.Has, SpillSet.Has, the merged runs and the sets'
// shard sources and views against a map-and-sort reference. The first byte picks how many runs the addresses are split
// into; every following byte pair is one address in a 2^16 range, so
// duplicates and near misses are common. The committed corpus
// (testdata/fuzz/FuzzRunFile) holds an empty input, one address,
// repeats of one address and a long input with several runs.
func FuzzRunFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0]%8)
		data = data[1:]
		n := min(len(data)/2, 1024)
		addrs := make([]Addr, n)
		for i := range addrs {
			addrs[i] = AddrFromUint64s(0x2001_0db8<<32, uint64(data[2*i])<<8|uint64(data[2*i+1]))
		}
		members := SetOf(addrs...)
		want := members.Sorted()

		dir := t.TempDir()
		rf, err := OpenRunFile(dir, "runs-*")
		if err != nil {
			t.Fatal(err)
		}
		defer rf.Close()
		runs := make([]*Run, k)
		inRun := make([]Set, k)
		for j := range runs {
			part := slices.Clone(addrs[j*n/k : (j+1)*n/k])
			SortAddrs(part)
			run, err := rf.WriteRun(part)
			if err != nil {
				t.Fatal(err)
			}
			runs[j], inRun[j] = &run, SetOf(part...)
		}

		spill, err := NewSpillSet(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer spill.Close()
		sets := []*SpillSet{NewResidentSet(), spill}
		for _, set := range sets {
			for _, a := range addrs {
				set.Add(a)
			}
			if err := set.Compact(); err != nil {
				t.Fatal(err)
			}
			if set.Len() != len(want) {
				t.Fatalf("SpillSet.Len = %d, want %d", set.Len(), len(want))
			}
		}

		var scratch []byte
		for _, a := range addrs {
			for _, p := range []Addr{a, a.Prev(), a.Next()} {
				for j, run := range runs {
					got, err := run.Has(rf, p, &scratch)
					if err != nil {
						t.Fatal(err)
					}
					if got != inRun[j].Has(p) {
						t.Fatalf("run %d: Has(%v) = %v", j, p, got)
					}
				}
				for _, set := range sets {
					if got := set.Has(p); got != members.Has(p) {
						t.Fatalf("SpillSet.Has(%v) = %v", p, got)
					}
				}
			}
		}

		got, err := drainSource(rf.Merge(runs), 100)
		if err != nil {
			t.Fatal(err)
		}
		requireAddrs(t, "merged runs", got, want)
		for _, set := range sets {
			view, err := set.View()
			if err != nil {
				t.Fatal(err)
			}
			for sh := 0; sh < AddrShards; sh++ {
				got, err := drainSource(set.ShardSource(sh), 100)
				if err != nil {
					t.Fatal(err)
				}
				var inShard []Addr
				for _, a := range want {
					if ShardOf(a) == sh {
						inShard = append(inShard, a)
					}
				}
				requireAddrs(t, "set shard source", got, inShard)
				requireAddrs(t, "set view", view.Shard(sh), inShard)
			}
		}
	})
}
