//go:build !race

// The race detector makes sync.Pool drop a share of Puts on purpose, so
// SortAddrs' pooled scratch allocates under it; the guard runs without.

package ip6

import "testing"

// TestSortAddrsAllocFree: once its pooled scratch is warm, sorting
// allocates nothing.
func TestSortAddrsAllocFree(t *testing.T) {
	r := newBenchStream()
	src := make([]Addr, 4096)
	for i := range src {
		src[i] = AddrFromUint64s(r.Uint64(), r.Uint64())
	}
	buf := make([]Addr, len(src))
	copy(buf, src)
	SortAddrs(buf)
	allocs := testing.AllocsPerRun(50, func() {
		copy(buf, src)
		SortAddrs(buf)
	})
	if allocs != 0 {
		t.Fatalf("SortAddrs allocs/op = %v, want 0", allocs)
	}
}
