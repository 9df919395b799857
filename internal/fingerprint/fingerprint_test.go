package fingerprint

import (
	"context"
	"reflect"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/scan"
)

func testWorld(t testing.TB) *netmodel.Network {
	t.Helper()
	ases := []*netmodel.AS{
		{ASN: 54113, Name: "Fastly", Country: "US", Category: netmodel.CatCDN,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2a04:4e40::/32")}, AnnouncedFrom: []int{0}},
	}
	n := netmodel.NewNetwork(9, netmodel.NewASTable(ases))
	as := ases[0]
	add := func(prefix string, backends int, jitter bool) {
		n.AddAlias(&netmodel.AliasRule{
			Prefix: ip6.MustParsePrefix(prefix), AS: as,
			Protos:   netmodel.ProtoSetOf(netmodel.ICMP, netmodel.TCP80),
			Backends: backends, WindowJitter: jitter,
			BornDay: 0, DeathDay: netmodel.Forever, FP: netmodel.FPLinuxLB, MTU: 1500,
		})
	}
	add("2a04:4e40:1::/48", 1, false)    // single host alias
	add("2a04:4e40:2::/48", 4, false)    // CDN fleet, uniform FP
	add("2a04:4e40:3::/48", 4, true)     // fleet with per-backend window jitter
	add("2a04:4e40:4::/48", 4096, false) // per-address termination
	return n
}

func lossless(n *netmodel.Network) *scan.Scanner {
	cfg := scan.DefaultConfig(1)
	cfg.LossRate = 0
	return scan.New(n, cfg)
}

func TestCollectAndSummarizeUniform(t *testing.T) {
	n := testWorld(t)
	s := lossless(n)
	samples, err := CollectTCP(context.Background(), s, ip6.MustParsePrefix("2a04:4e40:2::/48"), 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 16 {
		t.Fatalf("samples: %d", len(samples))
	}
	sum := Summarize(samples)
	if !sum.Uniform || sum.Distinct != 1 || sum.WindowOnly {
		t.Errorf("uniform fleet: %+v", sum)
	}
}

// TestCollectTCPWorkerInvariant pins CollectTCP's output order: samples
// come out in canonical shard order, so a one-worker and an eight-worker
// scanner return identical slices, loss-skipped draws included.
func TestCollectTCPWorkerInvariant(t *testing.T) {
	n := testWorld(t)
	collect := func(workers int) []FPSample {
		cfg := scan.DefaultConfig(3)
		cfg.LossRate = 0.2
		cfg.Retries = 0
		cfg.Workers = workers
		samples, err := CollectTCP(context.Background(), scan.New(n, cfg), ip6.MustParsePrefix("2a04:4e40:3::/48"), 200, 5)
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	one, eight := collect(1), collect(8)
	if len(one) == 0 || len(one) == 200 {
		t.Fatalf("%d of 200 draws answered; loss is not exercised", len(one))
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatal("Workers 1 and 8 collected different samples")
	}
	for i := 1; i < len(one); i++ {
		if ip6.ShardOf(one[i].Addr) < ip6.ShardOf(one[i-1].Addr) {
			t.Fatalf("sample %d is out of canonical shard order", i)
		}
	}
}

func TestSummarizeWindowJitter(t *testing.T) {
	n := testWorld(t)
	s := lossless(n)
	samples, err := CollectTCP(context.Background(), s, ip6.MustParsePrefix("2a04:4e40:3::/48"), 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(samples)
	if sum.Uniform {
		t.Errorf("jittered fleet summarized uniform: %+v", sum)
	}
	if !sum.WindowOnly {
		t.Errorf("expected window-only variance: %+v", sum)
	}
	if sum.DistinctIgnoringWindow != 1 {
		t.Errorf("non-window features varied: %+v", sum)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	sum := Summarize(nil)
	if sum.Samples != 0 || sum.Uniform || sum.WindowOnly {
		t.Errorf("empty summary: %+v", sum)
	}
}

func TestTBTAllShared(t *testing.T) {
	n := testWorld(t)
	res := TooBigTrick(n, ip6.MustParsePrefix("2a04:4e40:1::/48"), 3)
	if res.Outcome != TBTAllShared {
		t.Errorf("single-host alias: %+v", res)
	}
	if res.Tested != TBTAddresses || res.Fragmented != TBTAddresses {
		t.Errorf("counters: %+v", res)
	}
}

func TestTBTPartialShared(t *testing.T) {
	n := testWorld(t)
	n.ResetPMTU()
	res := TooBigTrick(n, ip6.MustParsePrefix("2a04:4e40:2::/48"), 4)
	if res.Outcome != TBTPartialShared {
		t.Errorf("4-backend fleet: %+v", res)
	}
	if res.Fragmented < 2 || res.Fragmented >= TBTAddresses {
		t.Errorf("fragmented count: %+v", res)
	}
}

func TestTBTNoneShared(t *testing.T) {
	n := testWorld(t)
	n.ResetPMTU()
	res := TooBigTrick(n, ip6.MustParsePrefix("2a04:4e40:4::/48"), 5)
	if res.Outcome != TBTNoneShared {
		t.Errorf("per-address termination: %+v", res)
	}
	if res.Fragmented != 1 {
		t.Errorf("only the poisoned address should fragment: %+v", res)
	}
}

func TestTBTUnsupported(t *testing.T) {
	n := testWorld(t)
	// A prefix with no responsive addresses at all.
	res := TooBigTrick(n, ip6.MustParsePrefix("2a04:4e40:ff::/48"), 6)
	if res.Outcome != TBTUnsupported {
		t.Errorf("unresponsive prefix: %+v", res)
	}
	if TBTUnsupported.String() != "unsupported" || TBTAllShared.String() != "all-shared" ||
		TBTNoneShared.String() != "none-shared" || TBTPartialShared.String() != "partial-shared" {
		t.Error("outcome strings")
	}
}

func TestTBTDeterministicPerDay(t *testing.T) {
	n := testWorld(t)
	n.ResetPMTU()
	r1 := TooBigTrick(n, ip6.MustParsePrefix("2a04:4e40:2::/48"), 9)
	n.ResetPMTU()
	r2 := TooBigTrick(n, ip6.MustParsePrefix("2a04:4e40:2::/48"), 9)
	if r1.Fragmented != r2.Fragmented || r1.Outcome != r2.Outcome {
		t.Errorf("TBT not deterministic: %+v vs %+v", r1, r2)
	}
}

func BenchmarkTooBigTrick(b *testing.B) {
	n := testWorld(b)
	p := ip6.MustParsePrefix("2a04:4e40:2::/48")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ResetPMTU()
		TooBigTrick(n, p, i)
	}
}
