package hlfile_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
)

// testAddrs draws n deterministic addresses inside 2001:100::/32 (with
// duplicates sprinkled in) so scans against the test network get some
// responders.
func testAddrs(seed uint64, n int) []ip6.Addr {
	r := rng.NewStream(seed, "hlfile-test")
	out := make([]ip6.Addr, 0, n)
	for i := 0; i < n; i++ {
		a := ip6.AddrFromUint64s(0x2001_0100_0000_0000|r.Uint64()&0xffff, r.Uint64()&0xff)
		out = append(out, a)
		if i%11 == 0 {
			out = append(out, a) // duplicate: the writer must drop it
		}
	}
	return out
}

// sortedUnique is the expected file content for a given input.
func sortedUnique(addrs []ip6.Addr) []ip6.Addr {
	set := ip6.SetOf(addrs...)
	return set.Sorted()
}

func writeFile(t *testing.T, addrs []ip6.Addr, budget int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "targets.hl6")
	w, err := hlfile.NewWriterBudget(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWriterReaderRoundTrip(t *testing.T) {
	for _, budget := range []int{1, 17, 1 << 20} {
		addrs := testAddrs(1, 2000)
		want := sortedUnique(addrs)
		path := writeFile(t, addrs, budget)

		r, err := hlfile.Open(path)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if r.Len() != len(want) {
			t.Fatalf("budget %d: Len %d, want %d", budget, r.Len(), len(want))
		}
		got, err := scan.Collect(r.Source())
		if err != nil {
			t.Fatal(err)
		}
		// The file stores shard runs in canonical shard order; membership
		// and per-shard grouping are the contract.
		if len(got) != len(want) {
			t.Fatalf("budget %d: collected %d addrs, want %d", budget, len(got), len(want))
		}
		gotSet := ip6.SetOf(got...)
		for _, a := range want {
			if !gotSet.Has(a) {
				t.Fatalf("budget %d: %v missing from file", budget, a)
			}
		}
		// Each shard's run is sorted, deduped, correctly partitioned, and
		// sized exactly as ShardLen reports.
		src := r.Source().(scan.ShardedSource)
		sum := 0
		for sh := 0; sh < ip6.AddrShards; sh++ {
			n := r.ShardLen(sh)
			sum += n
			cur := src.ShardSource(sh)
			if cur == nil {
				if n != 0 {
					t.Fatalf("shard %d: nil source but ShardLen %d", sh, n)
				}
				continue
			}
			run, err := scan.Collect(cur)
			if err != nil {
				t.Fatal(err)
			}
			if len(run) != n {
				t.Fatalf("shard %d: %d addrs, ShardLen says %d", sh, len(run), n)
			}
			for i, a := range run {
				if ip6.ShardOf(a) != sh {
					t.Fatalf("shard %d holds foreign addr %v", sh, a)
				}
				if i > 0 && !run[i-1].Less(a) {
					t.Fatalf("shard %d unsorted or duplicated at %d", sh, i)
				}
			}
		}
		if sum != len(want) {
			t.Fatalf("shard lengths sum to %d, want %d", sum, len(want))
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		// The writer's scratch must be gone.
		entries, err := os.ReadDir(filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("leftover files next to output: %v", entries)
		}
	}
}

func TestEmptyFileAndEmptyShards(t *testing.T) {
	// A file with zero addresses is valid and yields an immediately
	// exhausted source.
	path := writeFile(t, nil, 4)
	r, err := hlfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 0 {
		t.Fatalf("empty file Len %d", r.Len())
	}
	got, err := scan.Collect(r.Source())
	if err != nil || len(got) != 0 {
		t.Fatalf("empty file collected %d addrs, err %v", len(got), err)
	}
	src := r.Source().(scan.ShardedSource)
	for sh := 0; sh < ip6.AddrShards; sh++ {
		if src.ShardSource(sh) != nil {
			t.Fatalf("empty file shard %d not nil", sh)
		}
	}

	// One address: exactly one populated shard.
	one := ip6.MustParseAddr("2001:db8::1")
	r2, err := hlfile.Open(writeFile(t, []ip6.Addr{one, one}, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 1 || r2.ShardLen(ip6.ShardOf(one)) != 1 {
		t.Fatalf("single-addr file Len %d, home shard %d", r2.Len(), r2.ShardLen(ip6.ShardOf(one)))
	}
}

func TestOpenRejectsCorruptFiles(t *testing.T) {
	path := writeFile(t, testAddrs(2, 100), 1<<20)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string][]byte{
		"truncated-header": good[:20],
		"truncated-body":   good[:len(good)-7],
		"trailing-bytes":   append(append([]byte(nil), good...), 0xff),
		"bad-magic":        append([]byte("NOPE"), good[4:]...),
		"bad-version":      append(append([]byte(nil), good[:4]...), append([]byte{0x7f, 0x7f}, good[6:]...)...),
		"empty":            {},
	}
	for name, data := range cases {
		_, err := hlfile.Open(write(name, data))
		if err == nil {
			t.Errorf("%s: Open accepted a corrupt file", name)
			continue
		}
		if !errors.Is(err, hlfile.ErrFormat) {
			t.Errorf("%s: error %v is not ErrFormat", name, err)
		}
		// NewReader shares the validation.
		if _, err := hlfile.NewReader(bytes.NewReader(data), int64(len(data))); !errors.Is(err, hlfile.ErrFormat) {
			t.Errorf("%s: NewReader error %v is not ErrFormat", name, err)
		}
	}
	// Missing files surface as plain I/O errors, not format errors.
	if _, err := hlfile.Open(filepath.Join(dir, "nope.hl6")); err == nil || errors.Is(err, hlfile.ErrFormat) {
		t.Errorf("missing file: err %v", err)
	}
}

// TestNewReaderMatchesOpen: an image embedded in a larger blob, served
// through NewReader over a section, reads exactly like the file Open
// maps — per-shard sources and whole-image pulls alike.
func TestNewReaderMatchesOpen(t *testing.T) {
	path := writeFile(t, testAddrs(3, 3000), 1<<20)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob := slices.Concat([]byte("prefix bytes"), image, []byte("suffix"))
	sec := io.NewSectionReader(bytes.NewReader(blob), int64(len("prefix bytes")), int64(len(image)))
	embedded, err := hlfile.NewReader(sec, sec.Size())
	if err != nil {
		t.Fatal(err)
	}
	defer embedded.Close()
	file, err := hlfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()

	if embedded.Mapped() {
		t.Fatal("NewReader claims a mapping")
	}
	want, err := scan.Collect(file.Source())
	if err != nil {
		t.Fatal(err)
	}
	got, err := scan.Collect(embedded.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("NewReader source diverges from Open's")
	}
	for sh := 0; sh < ip6.AddrShards; sh++ {
		drain := func(r *hlfile.Reader) []ip6.Addr {
			out, err := scan.Collect(r.ShardSource(sh))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		if w, g := drain(file), drain(embedded); !slices.Equal(w, g) || len(g) != file.ShardLen(sh) {
			t.Fatalf("shard %d: NewReader shard source yields %d addrs, Open's %d", sh, len(g), len(w))
		}
	}
}

// testNet is the miniature scan world (a responsive host plus an aliased
// /64) the equivalence test probes.
func testNet() *netmodel.Network {
	ases := []*netmodel.AS{
		{ASN: 100, Name: "Web", Country: "DE", Category: netmodel.CatCloud,
			Announced: []ip6.Prefix{ip6.MustParsePrefix("2001:100::/32")}, AnnouncedFrom: []int{0}},
	}
	n := netmodel.NewNetwork(7, netmodel.NewASTable(ases))
	n.AddHost(&netmodel.Host{
		Addr: ip6.MustParseAddr("2001:100::80"), Protos: netmodel.ProtoSetOf(netmodel.ICMP, netmodel.TCP80),
		BornDay: 0, DeathDay: netmodel.Forever, UptimePermille: 1000, FP: netmodel.FPLinux, MTU: 1500,
	})
	n.AddAlias(&netmodel.AliasRule{
		Prefix: ip6.MustParsePrefix("2001:100:a::/64"), AS: ases[0],
		Protos:  netmodel.ProtoSetOf(netmodel.ICMP),
		BornDay: 0, DeathDay: netmodel.Forever, Backends: 1, FP: netmodel.FPBSD, MTU: 1500,
	})
	return n
}

type taggedBatch struct {
	shard, seq int
	results    []scan.Result
}

func collectBatches(t *testing.T, s *scan.Scanner, src scan.TargetSource) []taggedBatch {
	t.Helper()
	var mu sync.Mutex
	var out []taggedBatch
	_, err := s.StreamFrom(context.Background(), src, []netmodel.Protocol{netmodel.ICMP, netmodel.TCP80}, 5, func(b *scan.Batch) error {
		mu.Lock()
		out = append(out, taggedBatch{b.Shard, b.Seq, append([]scan.Result(nil), b.Results...)})
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].shard != out[j].shard {
			return out[i].shard < out[j].shard
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// TestHitlistSourceMatchesSlice pins the file-backed source against
// scan.SliceSource over the same (sorted, deduped) addresses: identical
// per-shard batch sequences, so scanning from disk is bit-equivalent to
// scanning from memory.
func TestHitlistSourceMatchesSlice(t *testing.T) {
	addrs := testAddrs(3, 1500)
	// A few guaranteed responders in the mix.
	addrs = append(addrs,
		ip6.MustParseAddr("2001:100::80"),
		ip6.MustParseAddr("2001:100:a::1"),
		ip6.MustParseAddr("2001:100:a::2"),
	)
	want := sortedUnique(addrs)
	path := writeFile(t, addrs, 64) // tiny budget: many spilled runs

	n := testNet()
	cfg := scan.DefaultConfig(1)
	cfg.Workers = 4
	cfg.BatchSize = 32
	s := scan.New(n, cfg)

	// The slice reference must present targets in the same per-shard
	// order the file stores: sorted within each shard. A globally sorted
	// slice does exactly that (shard partition preserves relative order).
	ref := collectBatches(t, s, scan.SliceSource(want))

	r, err := hlfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := collectBatches(t, s, r.Source())

	if len(got) != len(ref) {
		t.Fatalf("batch count %d, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i].shard != ref[i].shard || got[i].seq != ref[i].seq {
			t.Fatalf("batch %d is shard %d seq %d, want shard %d seq %d",
				i, got[i].shard, got[i].seq, ref[i].shard, ref[i].seq)
		}
		if !reflect.DeepEqual(got[i].results, ref[i].results) {
			t.Fatalf("shard %d seq %d: results diverge between file and slice source",
				got[i].shard, got[i].seq)
		}
	}

	// And a second pass over a fresh source is identical (cursors are
	// per-source, the reader is reusable).
	again := collectBatches(t, s, r.Source())
	if !reflect.DeepEqual(got, again) {
		t.Fatal("second stream over the same reader diverges")
	}
}

func TestReaderMappedOnLinux(t *testing.T) {
	path := writeFile(t, testAddrs(4, 100), 1<<20)
	r, err := hlfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	t.Logf("mmap active: %v", r.Mapped())
}

// BenchmarkWriter writes 200 000 addresses drawn as `hitlist6 hl6 synth`
// draws them through a writer whose 16 Ki budget spills a dozen times,
// so both the parallel spill and the grouped merge are on the clock.
func BenchmarkWriter(b *testing.B) {
	r := rng.NewStream(42, "hl6-synth")
	addrs := make([]ip6.Addr, 200_000)
	for i := range addrs {
		hi := 0x2001_0000_0000_0000 | r.Uint64()&0x0fff_ffff_0000 | r.Uint64()&0xffff
		lo := r.Uint64() >> (r.Uint64() % 48)
		addrs[i] = ip6.AddrFromUint64s(hi, lo)
	}
	path := filepath.Join(b.TempDir(), "bench.hl6")
	b.SetBytes(int64(len(addrs)) * ip6.AddrBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := hlfile.NewWriterBudget(path, 1<<14)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.AddSlice(addrs); err != nil {
			b.Fatal(err)
		}
		if err := w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}
