package scan

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
)

// injectedTargets draws n addresses inside the test world's GFW-affected
// 240e::/20.
func injectedTargets(n int) []ip6.Addr {
	r := rng.NewStream(11, "scan-dns-plan")
	out := make([]ip6.Addr, n)
	for i := range out {
		out[i] = ip6.AddrFromUint64s(0x240e0<<44|r.Uint64()>>20, r.Uint64())
	}
	return out
}

// TestStreamDNSSharedPlan streams UDP/53 on two workers, every probe
// sharing the stream's one DNS plan, and checks each result against
// ProbeOne, which plans per call: same outcome, same wire bytes. CI also
// runs it under the race detector, since the plan is read by both
// workers at once.
func TestStreamDNSSharedPlan(t *testing.T) {
	n := testNet(t)
	n.Seal()
	cfg := DefaultConfig(3)
	cfg.Workers = 2
	cfg.BatchSize = 64
	s := New(n, cfg)
	targets := append(injectedTargets(512),
		ip6.MustParseAddr("2001:100::53"), ip6.MustParseAddr("2001:100::80"), ip6.MustParseAddr("2001:100::dead"))
	protos := []netmodel.Protocol{netmodel.UDP53, netmodel.ICMP}
	for _, day := range []int{5, 20000} { // inside and after the era
		got, _, err := scanAll(context.Background(), s, targets, protos, day)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(targets)*len(protos) {
			t.Fatalf("day %d: %d results, want %d", day, len(got), len(targets)*len(protos))
		}
		injected := 0
		for _, r := range got {
			want := s.ProbeOne(r.Target, r.Proto, day)
			if r.Success != want.Success || r.Kind != want.Kind || r.Attempts != want.Attempts ||
				r.InjectedTruth != want.InjectedTruth || len(r.DNS) != len(want.DNS) {
				t.Fatalf("day %d %v/%v: streamed %+v, ProbeOne %+v", day, r.Target, r.Proto, r, want)
			}
			for i := range want.DNS {
				if !bytes.Equal(r.DNS[i], want.DNS[i]) {
					t.Fatalf("day %d %v: reply %d differs", day, r.Target, i)
				}
			}
			injected += r.InjectedTruth
		}
		if (day == 5) != (injected > 0) {
			t.Fatalf("day %d: %d injected replies", day, injected)
		}
	}
}

// TestStreamDNSAllocBounded is the streamed UDP/53 alloc guard: a
// 4096-target stream into the injected 240e::/20 on an era day forges
// two or three replies per probe, yet with the batch buffers and wire
// arenas pooled and the plan made once per stream, what it allocates is
// the stream's fixed set-up, well under 0.1 objects per probe.
func TestStreamDNSAllocBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	n := testNet(t)
	n.Seal()
	cfg := DefaultConfig(1)
	cfg.LossRate = 0
	s := New(n, cfg)
	targets := injectedTargets(4096)
	protos := []netmodel.Protocol{netmodel.UDP53}
	var injected atomic.Int64 // the sink runs on the probe workers
	sink := func(b *Batch) error {
		for i := range b.Results {
			injected.Add(int64(b.Results[i].InjectedTruth))
		}
		return nil
	}
	allocs := testing.AllocsPerRun(5, func() {
		injected.Store(0)
		if _, err := s.StreamFrom(context.Background(), SliceSource(targets), protos, 5, sink); err != nil {
			t.Fatal(err)
		}
	})
	if got := injected.Load(); got < 2*int64(len(targets)) {
		t.Fatalf("%d injected replies over %d probes: the stream is not in an injection era", got, len(targets))
	}
	if perProbe := allocs / float64(len(targets)); perProbe >= 0.1 {
		t.Errorf("%.3f allocs per streamed UDP/53 probe (%v per stream), want < 0.1", perProbe, allocs)
	} else {
		t.Logf("%.3f allocs per streamed UDP/53 probe (%v per stream)", perProbe, allocs)
	}
}
