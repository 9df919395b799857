package ip6

import (
	"slices"
	"testing"
)

// TestAddLogMatchesReference drives resident and spilling sets
// (budgets 1 and 3, so the log spills runs) through rounds of inserts
// between StartLog calls — re-added members as well as new addresses,
// every shard on its own goroutine, as point inserts into one set of each
// kind and as ascending bulk inserts into the other, with compactions in
// between — and holds each round's log to a reference: exactly the
// addresses that were new, ascending. A shard that gained more than
// logFloor addresses and more than half its size loses the log for every
// shape at once.
func TestAddLogMatchesReference(t *testing.T) {
	res := NewResidentSet()
	sets := []*SpillSet{res, NewResidentSet()}
	for _, budget := range []int{1, 3} {
		s, err := NewSpillSet(t.TempDir(), budget)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sets = append(sets, s)
	}
	for _, s := range sets {
		if s.LogComplete() {
			t.Fatal("a set logs before StartLog")
		}
	}
	have := make(map[Addr]bool)
	pool := randAddrs(7, 20000, false)
	next, lost := 0, 0
	for round, n := range []int{3000, 500, 40, 0, 9000, 200} {
		for _, s := range sets {
			s.StartLog()
		}
		// Re-add some members, then add n new addresses, each shard on
		// its own goroutine.
		var perShard [AddrShards][]Addr
		for _, a := range pool[:min(next, 100)] {
			perShard[ShardOf(a)] = append(perShard[ShardOf(a)], a)
		}
		added := pool[next : next+n]
		for _, a := range added {
			perShard[ShardOf(a)] = append(perShard[ShardOf(a)], a)
			have[a] = true
		}
		next += n
		for i, s := range sets {
			ParallelShards(4, func(sh int) {
				if i%2 == 1 {
					bulk := slices.Clone(perShard[sh])
					SortAddrs(bulk)
					s.AddSortedToShard(sh, bulk)
					return
				}
				for _, a := range perShard[sh] {
					s.AddToShard(sh, a)
				}
			})
			if round%2 == 1 {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		var want [AddrShards][]Addr
		for _, a := range added {
			sh := ShardOf(a)
			want[sh] = append(want[sh], a)
		}
		complete := true
		for sh := range want {
			SortAddrs(want[sh])
			if k := len(want[sh]); k > logFloor && 2*k > res.ShardLen(sh) {
				complete = false
			}
		}
		if !complete {
			lost++
		}
		for i, s := range sets {
			if got := s.LogComplete(); got != complete {
				t.Fatalf("round %d, set %d: LogComplete = %v, want %v", round, i, got, complete)
			}
			if !complete {
				continue
			}
			for sh := range want {
				if s.LogLen(sh) != len(want[sh]) {
					t.Fatalf("round %d, set %d, shard %d: LogLen %d, want %d", round, i, sh, s.LogLen(sh), len(want[sh]))
				}
				var got []Addr
				cur := s.LogCursor(sh)
				for {
					a, ok, err := cur()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					got = append(got, a)
				}
				if !slices.Equal(got, want[sh]) {
					t.Fatalf("round %d, set %d, shard %d: log %v, want %v", round, i, sh, got, want[sh])
				}
			}
		}
	}
	if lost == 0 || lost == 6 {
		t.Fatalf("%d of 6 rounds lost the log: the bound is not exercised both ways", lost)
	}
	if len(have) != res.Len() {
		t.Fatalf("reference holds %d, set %d", len(have), res.Len())
	}
}
