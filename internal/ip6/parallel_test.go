package ip6

import (
	"sync/atomic"
	"testing"
)

func TestParallelShards(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, AddrShards + 5} {
		var hits [AddrShards]atomic.Int32
		ParallelShards(workers, func(sh int) {
			hits[sh].Add(1)
		})
		for sh := range hits {
			if got := hits[sh].Load(); got != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, sh, got)
			}
		}
	}
}
