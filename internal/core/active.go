package core

import (
	"slices"

	"hitlist6/internal/ip6"
)

// targetState tracks one address in the active scan window.
type targetState struct {
	firstDay       int
	lastSuccessDay int // -1 until first success
}

// activeTable is the active scan window, one table per canonical shard:
// the shard's addresses in ascending order, and each address's state at
// the same index. The addrs columns are the scan set itself — the main
// scan streams them through scan.ShardSlices — so a batch's offset names
// the table row its results belong to: the digest records row positions
// and finalization writes liveness by index, with no lookup. Admission
// merges each shard's new addresses in; every removal is one in-place
// pass that keeps the order, so no sweep ever sorts or walks a map. Each
// shard may be written by one goroutine at a time, like every sharded
// structure of the service.
type activeTable struct {
	addrs [][]ip6.Addr
	state [][]targetState
}

func newActiveTable() activeTable {
	return activeTable{
		addrs: make([][]ip6.Addr, ip6.AddrShards),
		state: make([][]targetState, ip6.AddrShards),
	}
}

// len returns the entry count across shards.
func (t *activeTable) len() int {
	n := 0
	for _, addrs := range t.addrs {
		n += len(addrs)
	}
	return n
}

// admit merges add — addresses of shard sh, none of them already in the
// table — into the shard, sorting add in place. Each new row starts at
// firstDay day with no success. The merge runs from the back into the
// room the shard grows by, so present rows move at most once.
func (t *activeTable) admit(sh int, add []ip6.Addr, day int) {
	if len(add) == 0 {
		return
	}
	ip6.SortAddrs(add)
	addrs, state := t.addrs[sh], t.state[sh]
	i, j := len(addrs), len(add)
	n := i + j
	addrs = slices.Grow(addrs, j)[:n]
	state = slices.Grow(state, j)[:n]
	for k := n - 1; j > 0; k-- {
		if i > 0 && addrs[i-1].Compare(add[j-1]) > 0 {
			i--
			addrs[k], state[k] = addrs[i], state[i]
		} else {
			j--
			addrs[k], state[k] = add[j], targetState{firstDay: day, lastSuccessDay: -1}
		}
	}
	t.addrs[sh], t.state[sh] = addrs, state
}

// removeIf drops every row of shard sh for which drop returns true, in
// one in-place pass that keeps the remaining rows in order.
func (t *activeTable) removeIf(sh int, drop func(a ip6.Addr, st targetState) bool) {
	addrs, state := t.addrs[sh], t.state[sh]
	k := 0
	for i, a := range addrs {
		if drop(a, state[i]) {
			continue
		}
		if k != i {
			addrs[k], state[k] = a, state[i]
		}
		k++
	}
	t.addrs[sh], t.state[sh] = addrs[:k], state[:k]
}
