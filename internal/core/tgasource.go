package core

// TGA feedback streaming: the round's responder union is a sharded (and
// possibly disk-backed) set, but ingest consumes one globally ordered
// stream — the order the former materialized union.Sorted() slice fixed,
// which seq numbers and the APD candidate queue depend on. sortedUnionSource
// reproduces exactly that order without materializing anything: one
// ascending cursor per shard, merged by ip6.MergeCursors.

import (
	"io"

	"hitlist6/internal/ip6"
	"hitlist6/internal/scan"
)

// sortedUnionSource streams u's members in ascending address order —
// byte-identical to scan.SliceSource over a sorted materialization of u.
// The set must not be mutated while the source is being consumed.
func sortedUnionSource(u ip6.SpillableSet) (scan.TargetSource, error) {
	var curs []ip6.Cursor
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if u.ShardLen(sh) == 0 {
			continue
		}
		cur, err := shardSortedCursor(u, sh)
		if err != nil {
			return nil, err
		}
		curs = append(curs, cur)
	}
	return &cursorSource{next: ip6.MergeCursors(curs...)}, nil
}

// shardSortedCursor returns shard sh's ascending cursor: the spill set's
// run-merging cursor when the union is disk-backed, otherwise a sort of
// the resident shard (scan-sized — one shard of one round's responders).
func shardSortedCursor(u ip6.SpillableSet, sh int) (ip6.Cursor, error) {
	if sp, ok := u.(*ip6.SpillSet); ok {
		return sp.ShardSortedCursor(sh)
	}
	members := make([]ip6.Addr, 0, u.ShardLen(sh))
	u.WalkShard(sh, func(a ip6.Addr) bool {
		members = append(members, a)
		return true
	})
	ip6.SortAddrs(members)
	return ip6.SliceCursor(members), nil
}

// cursorSource is the scan.TargetSource over a cursor. It delivers every
// address pulled before a cursor error; the error surfaces on the next
// pull, so no address is lost or reordered.
type cursorSource struct {
	next ip6.Cursor
	err  error // io.EOF or the cursor's error, returned once buf is empty
}

// Next implements scan.TargetSource.
func (s *cursorSource) Next(buf []ip6.Addr) (int, error) {
	n := 0
	for n < len(buf) && s.err == nil {
		a, ok, err := s.next()
		switch {
		case err != nil:
			s.err = err
		case !ok:
			s.err = io.EOF
		default:
			buf[n] = a
			n++
		}
	}
	if n > 0 {
		return n, nil
	}
	return 0, s.err
}
