package ip6

import (
	"sync"
	"testing"

	"hitlist6/internal/rng"
)

func shardedTestAddrs(n int) []Addr {
	out := make([]Addr, n)
	for i := range out {
		out[i] = AddrFromUint64s(0x2001_0db8_0000_0000+uint64(i/7), uint64(i)*0x9e37)
	}
	return out
}

func TestShardOfStableAndInRange(t *testing.T) {
	for _, a := range shardedTestAddrs(500) {
		sh := ShardOf(a)
		if sh < 0 || sh >= AddrShards {
			t.Fatalf("shard out of range: %d", sh)
		}
		if sh != ShardOf(a) {
			t.Fatalf("shard not stable for %v", a)
		}
	}
}

// TestShardOfMatchesMix pins ShardOf to the Mix formula every on-disk
// shard was assigned by, over random and edge addresses.
func TestShardOfMatchesMix(t *testing.T) {
	addrs := []Addr{{}, MustParseAddr("::1"), MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
		MustParseAddr("2001:db8::"), MustParseAddr("::ffff:ffff:ffff:ffff"), MustParseAddr("ffff:ffff:ffff:ffff::")}
	r := newBenchStream()
	for i := 0; i < 10000; i++ {
		addrs = append(addrs, AddrFromUint64s(r.Uint64(), r.Uint64()))
	}
	for _, a := range addrs {
		if got, want := ShardOf(a), int(rng.Mix(a.Hi(), a.Lo(), shardSalt)%AddrShards); got != want {
			t.Fatalf("ShardOf(%v) = %d, want %d", a, got, want)
		}
	}
}

func TestShardOfSpreads(t *testing.T) {
	hit := make(map[int]int)
	for _, a := range shardedTestAddrs(4096) {
		hit[ShardOf(a)]++
	}
	if len(hit) < AddrShards/2 {
		t.Errorf("addresses concentrated in %d/%d shards", len(hit), AddrShards)
	}
}

func TestShardedSetBasics(t *testing.T) {
	s := NewShardedSet()
	addrs := shardedTestAddrs(300)
	for _, a := range addrs {
		if !s.Add(a) {
			t.Fatalf("fresh add reported duplicate: %v", a)
		}
	}
	if s.Add(addrs[0]) {
		t.Error("duplicate add reported fresh")
	}
	if s.Len() != len(addrs) {
		t.Errorf("len: %d vs %d", s.Len(), len(addrs))
	}
	for _, a := range addrs {
		if !s.Shard(ShardOf(a)).Has(a) {
			t.Fatalf("missing %v", a)
		}
	}
}

func TestShardedSetShardsAreDisjointAndCanonical(t *testing.T) {
	s := NewShardedSet()
	for _, a := range shardedTestAddrs(1000) {
		s.Add(a)
	}
	total := 0
	for sh := 0; sh < AddrShards; sh++ {
		for a := range s.Shard(sh) {
			if ShardOf(a) != sh {
				t.Fatalf("%v stored in shard %d, canonical %d", a, sh, ShardOf(a))
			}
			total++
		}
	}
	if total != s.Len() {
		t.Errorf("shard walk saw %d, Len %d", total, s.Len())
	}
}

func TestShardedSetConcurrentPerShardWriters(t *testing.T) {
	s := NewShardedSet()
	addrs := shardedTestAddrs(2000)
	byShard := make([][]Addr, AddrShards)
	for _, a := range addrs {
		sh := ShardOf(a)
		byShard[sh] = append(byShard[sh], a)
	}
	// One goroutine per shard — the writing contract the scan engine
	// provides. Must be race-free (run under -race) and lose nothing.
	var wg sync.WaitGroup
	for sh := range byShard {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for _, a := range byShard[sh] {
				s.AddToShard(sh, a)
			}
		}(sh)
	}
	wg.Wait()
	if s.Len() != len(addrs) {
		t.Errorf("len after concurrent fill: %d vs %d", s.Len(), len(addrs))
	}
}
