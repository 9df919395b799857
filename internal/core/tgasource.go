package core

// TGA feedback streaming: the round's responder union is a sharded (and
// possibly disk-backed) set, but ingest consumes one globally ordered
// stream — the order the former materialized union.Sorted() slice fixed,
// which seq numbers and the APD candidate queue depend on. sortedUnionSource
// reproduces exactly that order without materializing anything: each
// shard's ascending cursor, merged by ip6.MergeCursors.

import (
	"io"

	"hitlist6/internal/ip6"
	"hitlist6/internal/scan"
)

// sortedUnionSource streams u's members in ascending address order —
// byte-identical to scan.SliceSource over a sorted materialization of u.
// The set must not be mutated while the source is being consumed.
func sortedUnionSource(u *ip6.SpillSet) scan.TargetSource {
	var curs []ip6.Cursor
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if u.ShardLen(sh) > 0 {
			curs = append(curs, u.ShardCursor(sh))
		}
	}
	return &cursorSource{next: ip6.MergeCursors(curs...)}
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
