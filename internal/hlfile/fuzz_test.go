package hlfile_test

import (
	"bytes"
	"testing"

	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
	"hitlist6/internal/scan"
)

// FuzzNewReader feeds arbitrary bytes to NewReader and walks every shard
// source of what it accepts: the contract is an error or a clean walk
// that yields exactly each shard's count, never a panic or a read out of
// range. The committed corpus (testdata/fuzz/FuzzNewReader) holds a
// valid image, a truncated one, one whose header claims a huge count,
// and one with trailing bytes.
func FuzzNewReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := hlfile.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		total := 0
		for sh := 0; sh < ip6.AddrShards; sh++ {
			got, err := scan.Collect(r.ShardSource(sh))
			if err != nil {
				t.Fatalf("shard %d: accepted image fails mid-walk: %v", sh, err)
			}
			n := len(got)
			if n != r.ShardLen(sh) {
				t.Fatalf("shard %d: walked %d addresses, header says %d", sh, n, r.ShardLen(sh))
			}
			total += n
		}
		if total != r.Len() {
			t.Fatalf("walked %d addresses, Len %d", total, r.Len())
		}
	})
}
