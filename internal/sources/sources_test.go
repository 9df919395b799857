package sources

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/scan"
	"hitlist6/internal/yarrp"
)

func TestSnapshotFeed(t *testing.T) {
	addrs := []ip6.Addr{ip6.MustParseAddr("2001:db9::2"), ip6.MustParseAddr("2001:db9::1")}
	f := Snapshot("det", 100, addrs)
	// The window stays open for two weeks so the next scheduled scan
	// catches one-shot imports.
	if f.ActiveAt(99) || !f.ActiveAt(100) || !f.ActiveAt(113) || f.ActiveAt(114) {
		t.Error("activity window")
	}
	got, err := f.Collect(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Less(got[1]) {
		t.Errorf("snapshot: %v", got)
	}
}

// collectOpen pulls every source Open returns for day, in feed order,
// into a map by feed name. It stops at the first failing source and
// returns the feeds already collected alongside the error.
func collectOpen(ctx context.Context, feeds []*Feed, day int) (map[string][]ip6.Addr, error) {
	out := make(map[string][]ip6.Addr)
	for _, ns := range Open(ctx, feeds, day) {
		addrs, err := scan.Collect(ns.Src)
		if err != nil {
			return out, err
		}
		out[ns.Name] = addrs
	}
	return out, nil
}

func TestRecurringFeedAndOpen(t *testing.T) {
	calls := 0
	f1 := Recurring("dns", 0, 1000, func(day int) []ip6.Addr {
		calls++
		return []ip6.Addr{ip6.MustParseAddr("2001:db9::1")}
	})
	f2 := Snapshot("ark", 500, []ip6.Addr{ip6.MustParseAddr("2001:db9::2")})

	out, err := collectOpen(context.Background(), []*Feed{f1, f2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out["dns"]) != 1 {
		t.Errorf("day 10: %v", out)
	}
	out, err = collectOpen(context.Background(), []*Feed{f1, f2}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("day 500: %v", out)
	}
	if calls != 2 {
		t.Errorf("collect calls: %d", calls)
	}
}

func TestRotatingCPE(t *testing.T) {
	isp := &netmodel.AS{ASN: 3320, Name: "DTAG", Country: "DE", Category: netmodel.CatISP,
		Announced: []ip6.Prefix{ip6.MustParsePrefix("2003::/19")}, AnnouncedFrom: []int{0}}
	pool := RotatingCPE{
		ISP: isp, Base: ip6.MustParsePrefix("2003::/19"),
		MACs: 500, PerDay: 300, RotationDays: 30, Seed: 5,
	}
	f := pool.Feed("cpe-dtag", 0, 10000)

	day0, err := f.Collect(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(day0) != 300 {
		t.Fatalf("per-day count: %d", len(day0))
	}
	euiCount := 0
	macs := map[ip6.MAC]bool{}
	for _, a := range day0 {
		if !ip6.MustParsePrefix("2003::/19").Contains(a) {
			t.Fatalf("address %v outside ISP space", a)
		}
		if a.IsEUI64() {
			euiCount++
			if m, ok := a.EUI64MAC(); ok {
				macs[m] = true
			}
		}
	}
	if euiCount != len(day0) {
		t.Errorf("all CPE addresses must be EUI-64: %d/%d", euiCount, len(day0))
	}
	// Fewer MACs than addresses: devices repeat.
	if len(macs) >= len(day0) {
		t.Errorf("no MAC reuse: %d macs for %d addrs", len(macs), len(day0))
	}

	// Rotation: same day within a period → same prefix per device; across
	// periods the accumulated distinct address set grows faster than the
	// per-day set.
	all := ip6.NewSet(0)
	for day := 0; day < 120; day += 30 {
		got, _ := f.Collect(context.Background(), day)
		all.AddSlice(got)
	}
	if all.Len() <= 350 {
		t.Errorf("rotation did not accumulate distinct addresses: %d", all.Len())
	}

	// The same MAC appears under multiple prefixes across periods
	// (the Section 4.1 EUI-64 grouping signal).
	iidToHis := map[uint64]map[uint64]bool{}
	for day := 0; day < 300; day += 30 {
		got, _ := f.Collect(context.Background(), day)
		for _, a := range got {
			iid, _ := a.EUI64IID()
			if iidToHis[iid] == nil {
				iidToHis[iid] = map[uint64]bool{}
			}
			iidToHis[iid][a.Hi()] = true
		}
	}
	multi := 0
	for _, his := range iidToHis {
		if len(his) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no IID observed under multiple prefixes")
	}
}

func TestTracerouteFeed(t *testing.T) {
	ases := []*netmodel.AS{
		{ASN: 1, Name: "T", Country: "US", Category: netmodel.CatTransit,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2914::/24")}, AnnouncedFrom: []int{0}},
		{ASN: 2, Name: "D", Country: "DE", Category: netmodel.CatISP,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2003::/19")}, AnnouncedFrom: []int{0}},
	}
	n := netmodel.NewNetwork(3, netmodel.NewASTable(ases))
	tr := yarrp.New(n, yarrp.Config{Seed: 1})
	f := TracerouteFeed("atlas", 0, 100, tr, func(day int) []ip6.Addr {
		return []ip6.Addr{ip6.MustParseAddr("2003::42")}
	})
	got, err := f.Collect(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("traceroute feed found nothing")
	}
	for _, a := range got {
		if a == ip6.MustParseAddr("2003::42") {
			t.Error("feed leaked the target")
		}
	}
}

// TestOpenHonorsContext: each source Open returns checks ctx before
// collecting, so cancellation between feeds stops the pull with the
// feeds already collected and ctx's error.
func TestOpenHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	a1 := []ip6.Addr{ip6.MustParseAddr("2001:db9::1")}
	collected := []string{}
	mk := func(name string, cancelAfter bool) *Feed {
		return &Feed{Name: name, FromDay: 0, ToDay: 100,
			Collect: func(context.Context, int) ([]ip6.Addr, error) {
				collected = append(collected, name)
				if cancelAfter {
					cancel()
				}
				return a1, nil
			}}
	}
	out, err := collectOpen(ctx, []*Feed{mk("a", false), mk("b", true), mk("c", false)}, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 2 || out["a"] == nil || out["b"] == nil {
		t.Errorf("partial results missing: %v", out)
	}
	if len(collected) != 2 {
		t.Errorf("feeds collected after cancellation: %v", collected)
	}

	// An erroring feed likewise surfaces with earlier feeds intact.
	boom := errors.New("collector offline")
	bad := &Feed{Name: "bad", FromDay: 0, ToDay: 100,
		Collect: func(context.Context, int) ([]ip6.Addr, error) { return nil, boom }}
	out, err = collectOpen(context.Background(), []*Feed{mk("a", false), bad}, 5)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(out) != 1 {
		t.Errorf("partial results missing: %v", out)
	}
}

// TestFeedSource pins the per-feed streaming source: lazy single
// collection, full in-order delivery, inactive feeds exhausted
// immediately, and Collect errors surfacing from the pull.
func TestFeedSource(t *testing.T) {
	addrs := []ip6.Addr{
		ip6.MustParseAddr("2001:db9::1"),
		ip6.MustParseAddr("2001:db9::2"),
		ip6.MustParseAddr("2001:db9::3"),
	}
	calls := 0
	f := &Feed{Name: "dns", FromDay: 0, ToDay: 100,
		Collect: func(context.Context, int) ([]ip6.Addr, error) {
			calls++
			return addrs, nil
		}}

	src := f.Source(context.Background(), 5)
	if calls != 0 {
		t.Fatal("Collect ran before the first pull")
	}
	got, err := scan.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, addrs) || calls != 1 {
		t.Errorf("pulled %v (collect calls %d)", got, calls)
	}

	// Inactive day: exhausted without collecting.
	src = f.Source(context.Background(), 200)
	if got, err := scan.Collect(src); err != nil || len(got) != 0 {
		t.Errorf("inactive feed: %v, %v", got, err)
	}
	if calls != 1 {
		t.Error("inactive feed ran Collect")
	}

	// Collect error surfaces from Next.
	boom := errors.New("collector offline")
	bad := &Feed{Name: "bad", FromDay: 0, ToDay: 100,
		Collect: func(context.Context, int) ([]ip6.Addr, error) { return nil, boom }}
	if _, err := scan.Collect(bad.Source(context.Background(), 5)); !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}

	// Open returns only active feeds, in feed order.
	late := &Feed{Name: "late", FromDay: 50, ToDay: 60, Collect: bad.Collect}
	srcs := Open(context.Background(), []*Feed{f, late}, 5)
	if len(srcs) != 1 || srcs[0].Name != "dns" {
		t.Errorf("Open: %v", srcs)
	}
}

// TestHitlistFileFeed pins the streaming .hl6-backed feed: lazy open on
// the first pull, full contents delivered, open errors surfacing from
// Next, and inactivity yielding an empty stream.
func TestHitlistFileFeed(t *testing.T) {
	addrs := []ip6.Addr{
		ip6.MustParseAddr("2001:db8::1"),
		ip6.MustParseAddr("2001:db8::2"),
		ip6.MustParseAddr("2001:db8:99::1"),
	}
	path := filepath.Join(t.TempDir(), "import.hl6")
	if err := hlfile.Write(path, addrs); err != nil {
		t.Fatal(err)
	}

	f := HitlistFile("rdns-import", 50, path)
	if f.ActiveAt(49) || !f.ActiveAt(50) || f.ActiveAt(64) {
		t.Error("activity window")
	}
	got, err := scan.Collect(f.Source(context.Background(), 50))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ip6.SetOf(got...), ip6.SetOf(addrs...); !reflect.DeepEqual(got, want) {
		t.Errorf("streamed %v, want %v", got, want)
	}

	// Inactive day: exhausted immediately, no file touched.
	empty, err := scan.Collect(f.Source(context.Background(), 10))
	if err != nil || len(empty) != 0 {
		t.Errorf("inactive day yielded %d addrs, err %v", len(empty), err)
	}

	// A missing file fails at pull time, not construction time.
	broken := HitlistFile("bad", 50, filepath.Join(t.TempDir(), "missing.hl6"))
	buf := make([]ip6.Addr, 8)
	if _, err := broken.Source(context.Background(), 50).Next(buf); err == nil {
		t.Error("missing file did not surface from Next")
	}

	// Cancellation before the first pull surfaces too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Source(ctx, 50).Next(buf); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled pull: %v", err)
	}
}
