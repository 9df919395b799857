package hlfile

// Internal test forcing the non-mmap read path: on platforms where mmap
// succeeds the ReadAt sources never run in the black-box tests, so drop
// the mapping by hand and pin both paths against each other.

import (
	"path/filepath"
	"reflect"
	"testing"

	"hitlist6/internal/ip6"
	"hitlist6/internal/rng"
	"hitlist6/internal/scan"
)

func TestReadAtPathMatchesMmap(t *testing.T) {
	r := rng.NewStream(9, "readat-test")
	addrs := make([]ip6.Addr, 3000)
	for i := range addrs {
		addrs[i] = ip6.AddrFromUint64s(r.Uint64(), r.Uint64())
	}
	path := filepath.Join(t.TempDir(), "t.hl6")
	if err := Write(path, addrs); err != nil {
		t.Fatal(err)
	}

	mapped, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	plain, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.data != nil {
		munmapFile(plain.data)
		plain.data = nil
	}
	if mapped.Mapped() == plain.Mapped() {
		t.Skip("mmap unavailable; both readers already use ReadAt")
	}

	want, err := scan.Collect(mapped.Source())
	if err != nil {
		t.Fatal(err)
	}
	got, err := scan.Collect(plain.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("ReadAt path diverges from mmap path on generic pulls")
	}

	// Per-shard sources too (mapped spans vs shardReader), with small pull
	// buffers so readAddrs runs many partial chunks.
	for sh := 0; sh < ip6.AddrShards; sh++ {
		ms := mapped.Source().(scan.ShardedSource).ShardSource(sh)
		ps := plain.Source().(scan.ShardedSource).ShardSource(sh)
		if (ms == nil) != (ps == nil) {
			t.Fatalf("shard %d: source presence diverges", sh)
		}
		if ms == nil {
			continue
		}
		var wantRun, gotRun []ip6.Addr
		buf := make([]ip6.Addr, 7)
		for {
			n, err := ms.Next(buf)
			wantRun = append(wantRun, buf[:n]...)
			if err != nil {
				break
			}
		}
		for {
			n, err := ps.Next(buf)
			gotRun = append(gotRun, buf[:n]...)
			if err != nil {
				break
			}
		}
		if !reflect.DeepEqual(wantRun, gotRun) {
			t.Fatalf("shard %d: ReadAt source diverges from mmap source", sh)
		}
	}
}
