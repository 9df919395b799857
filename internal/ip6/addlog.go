package ip6

// logFloor is how many addresses a shard's add log may always hold.
// Beyond it, a log holding more than half its shard is dropped: the set
// is then written whole, which costs at most twice the log would.
const logFloor = 64

// addLog records, per shard, the addresses a set newly gains after
// StartLog: what a delta checkpoint appends. The sets never remove an
// address, so every logged address is distinct and still a member.
//
// A shard's log is lost — the set must be written whole — once it
// outgrows its bound (logFloor, or half the shard). Both the log and its shard grow by one per logged address, so
// whether the bound was crossed depends only on the final counts, never
// on the order addresses arrived in: a resident and a spilled set of the
// same content lose their logs at the same point. All state is per
// shard, so the per-shard writing contract covers the log too.
type addLog struct {
	lost   [AddrShards]bool
	shards [AddrShards][]Addr // each shard's resident log
	n      [AddrShards]int    // each shard's log length, resident or spilled
}

// start empties the log, keeping each shard's capacity.
func (l *addLog) start() {
	for i := range l.shards {
		l.lost[i] = false
		l.shards[i] = l.shards[i][:0]
		l.n[i] = 0
	}
}

// add logs a, newly added to shard i, which now holds shardLen
// addresses. It reports false when the shard's log is, or now becomes,
// lost.
func (l *addLog) add(i int, a Addr, shardLen int) bool {
	if l.lost[i] {
		return false
	}
	l.n[i]++
	if l.n[i] > logFloor && 2*l.n[i] > shardLen {
		l.drop(i)
		return false
	}
	l.shards[i] = append(l.shards[i], a)
	return true
}

// drop marks shard i's log lost and frees it.
func (l *addLog) drop(i int) {
	l.lost[i] = true
	l.shards[i] = nil
}

// complete reports whether no shard's log is lost.
func (l *addLog) complete() bool {
	for _, lost := range l.lost {
		if lost {
			return false
		}
	}
	return true
}
