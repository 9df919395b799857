package scan

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
)

// TestStreamMatchesProbeOne pins the one probe implementation: the
// engine's target-major loop resolves a target once and probes it on
// every protocol, and each streamed Result must equal what ProbeOne says
// about that (target, protocol) alone — over live hosts, aliased space,
// GFW-injected UDP/53 targets and dark addresses, under loss and
// retries, sealed and unsealed, through both the sharded and the routed
// path.
func TestStreamMatchesProbeOne(t *testing.T) {
	var targets []ip6.Addr
	targets = append(targets, ip6.MustParseAddr("2001:100::80"), ip6.MustParseAddr("2001:100::53"))
	targets = append(targets, streamTargets(120)...) // aliased /64
	cn, dark := ip6.MustParsePrefix("240e::/64"), ip6.MustParsePrefix("2001:100:dead::/64")
	for i := uint64(0); i < 120; i++ {
		targets = append(targets, cn.NthAddr(i), dark.NthAddr(i))
	}
	protos := allProtos()

	for _, sealed := range []bool{false, true} {
		n := testNet(t)
		if sealed {
			n.Seal()
		}
		cfg := DefaultConfig(9)
		cfg.LossRate = 0.3
		cfg.Retries = 2
		cfg.Workers = 4
		cfg.BatchSize = 7
		s := New(n, cfg)
		ref := New(n, cfg)
		for name, src := range map[string]func() TargetSource{
			"sharded": func() TargetSource { return SliceSource(targets) },
			"routed":  func() TargetSource { return opaque{SliceSource(targets)} },
		} {
			var mu sync.Mutex
			seen, dns, successes := 0, 0, 0
			next := make(map[int]int) // shard → expected Offset of its next batch
			_, err := s.StreamFrom(context.Background(), src(), protos, 9, func(b *Batch) error {
				mu.Lock()
				defer mu.Unlock()
				if b.Offset() != next[b.Shard] {
					t.Errorf("%s: shard %d batch %d at offset %d, want %d", name, b.Shard, b.Seq, b.Offset(), next[b.Shard])
				}
				next[b.Shard] += len(b.Results)
				for i := range b.Results {
					got := b.Results[i]
					if want := protos[(b.Offset()+i)%len(protos)]; got.Proto != want {
						t.Errorf("%s: offset %d carries %v, want %v", name, b.Offset()+i, got.Proto, want)
					}
					want := ref.ProbeOne(got.Target, got.Proto, 9)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s sealed=%v: %v %v streamed %+v, ProbeOne %+v", name, sealed, got.Target, got.Proto, got, want)
					}
					seen++
					dns += len(got.DNS)
					if got.Success {
						successes++
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if seen != len(targets)*len(protos) {
				t.Errorf("%s: %d results, want %d", name, seen, len(targets)*len(protos))
			}
			if dns == 0 || successes == 0 || successes == seen {
				t.Errorf("%s: %d DNS messages, %d/%d successes — the target mix is not exercised", name, dns, successes, seen)
			}
		}
	}
}

// TestMisshardedSourceFailsStream: the engine keys the host lookup and
// every per-shard digest by the shard a ShardedSource claims, so a source
// lying about one address must fail the stream, not land the address in
// the wrong shard.
func TestMisshardedSourceFailsStream(t *testing.T) {
	n := testNet(t)
	n.Seal()
	shards := make([][]ip6.Addr, ip6.AddrShards)
	for _, a := range streamTargets(300) {
		shards[ip6.ShardOf(a)] = append(shards[ip6.ShardOf(a)], a)
	}
	protos := []netmodel.Protocol{netmodel.ICMP}
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig(1)
		cfg.Workers = workers
		s := New(n, cfg)
		if _, err := s.StreamFrom(context.Background(), ShardSlices(shards), protos, 5, func(*Batch) error { return nil }); err != nil {
			t.Fatalf("honest source: %v", err)
		}

		// Move one address into a neighbouring shard.
		liar := make([][]ip6.Addr, len(shards))
		copy(liar, shards)
		stray := ip6.MustParseAddr("2001:100::80")
		wrong := (ip6.ShardOf(stray) + 1) % ip6.AddrShards
		liar[wrong] = append(append([]ip6.Addr(nil), shards[wrong]...), stray)

		var mu sync.Mutex
		delivered := false
		_, err := s.StreamFrom(context.Background(), ShardSlices(liar), protos, 5, func(b *Batch) error {
			mu.Lock()
			defer mu.Unlock()
			for i := range b.Results {
				if b.Results[i].Target == stray {
					delivered = true
				}
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), stray.String()) {
			t.Errorf("workers=%d: mis-sharded source: err = %v, want one naming %v", workers, err, stray)
		}
		if delivered {
			t.Errorf("workers=%d: the stray address reached the sink", workers)
		}

	}
}
