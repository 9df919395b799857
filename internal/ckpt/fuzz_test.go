package ckpt_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hitlist6/internal/ckpt"
	"hitlist6/internal/ip6"
)

// FuzzOpen mutates the manifest of a committed two-level chain — a delta
// head over a full parent, two payloads at each level — and holds Open
// and OpenChain to their contract: a snapshot or an error, never a
// panic, every payload of every level a snapshot hands out reads back
// exactly the bytes its manifest entry claims, and resolving it through
// the chain (Levels) returns levels or an error.
func FuzzOpen(f *testing.F) {
	dest := filepath.Join(f.TempDir(), "ck")
	writeFuzzChain(f, dest)
	valid, err := os.ReadFile(filepath.Join(dest, ckpt.ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)

	f.Fuzz(func(t *testing.T, manifest []byte) {
		if err := os.WriteFile(filepath.Join(dest, ckpt.ManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, open := range []func(string) (*ckpt.Snapshot, error){ckpt.Open, ckpt.OpenChain} {
			s, err := open(dest)
			if (s == nil) == (err == nil) {
				t.Fatalf("snapshot %v with error %v", s, err)
			}
			for lvl := s; lvl != nil; lvl = lvl.Parent {
				for _, fi := range lvl.Manifest.Files {
					readSection(t, lvl, fi)
					if levels, err := lvl.Levels(fi.Name); (levels == nil) == (err == nil) {
						t.Fatalf("%s: levels %v with error %v", fi.Name, levels, err)
					}
				}
			}
		}
	})
}

// writeFuzzChain commits the fuzz fixture: a full checkpoint at scan 1,
// then a delta at scan 2 whose a.bin appends to the parent's.
func writeFuzzChain(f *testing.F, dest string) {
	for scan, begin := range []func(string) (*ckpt.Writer, error){ckpt.Begin, ckpt.BeginDelta} {
		w, err := begin(dest)
		if err != nil {
			f.Fatal(err)
		}
		for _, name := range []string{"a.bin", "b.bin"} {
			p, err := w.Create(name)
			if err != nil {
				f.Fatal(err)
			}
			fmt.Fprintf(p, "%s at scan %d", name, scan+1)
			if scan == 1 && name == "a.bin" {
				p.SetAppend()
			}
			if err := p.Close(); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Commit(ckpt.Manifest{ScanIndex: scan + 1}); err != nil {
			f.Fatal(err)
		}
	}
}

// readSection reads payload fi of an opened snapshot in full and fails
// unless it is exactly fi.Bytes long.
func readSection(t *testing.T, s *ckpt.Snapshot, fi ckpt.FileInfo) {
	t.Helper()
	sec, err := s.Open(fi.Name)
	if err != nil {
		t.Fatalf("%s listed but not openable: %v", fi.Name, err)
	}
	defer sec.Close()
	b, err := io.ReadAll(sec)
	if err != nil || int64(len(b)) != fi.Bytes {
		t.Fatalf("%s read %d bytes (%v), manifest says %d", fi.Name, len(b), err, fi.Bytes)
	}
}

// FuzzJournal replays arbitrary bytes as an ingest journal spooled from
// feeds sources and holds the reader to its contract against a direct
// decode of the bytes: a bad magic fails OpenJournal with ErrCorrupt;
// otherwise Next hands out every whole record in order while its feed
// index is in [0, feeds), then ends cleanly at the end of the file, or
// fails with ErrCorrupt at the first record naming another feed or at a
// torn trailing record. Never a panic, never a record past the file.
func FuzzJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "scan.journal")
	jw, err := ckpt.CreateJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	for i, a := range []string{"2001:db8::1", "2001:db8::2", "240e::53"} {
		if err := jw.Add(int32(i), ip6.MustParseAddr(a)); err != nil {
			f.Fatal(err)
		}
	}
	if err := jw.Finish(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, byte(3))

	const recBytes = 4 + ip6.AddrBytes
	f.Fuzz(func(t *testing.T, data []byte, feeds byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jr, err := ckpt.OpenJournal(path, int(feeds))
		if len(data) < 4 || string(data[:4]) != "HL6J" {
			if !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("bad magic: err %v, want ckpt.ErrCorrupt", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		defer jr.Close()
		rest := data[4:]
		for i := 0; ; i++ {
			feed, a, ok, err := jr.Next()
			switch {
			case len(rest) == 0:
				if ok || err != nil {
					t.Fatalf("record %d past the end: ok=%v err=%v", i, ok, err)
				}
				return
			case len(rest) < recBytes:
				if ok || !errors.Is(err, ckpt.ErrCorrupt) {
					t.Fatalf("torn record %d: ok=%v err=%v, want ckpt.ErrCorrupt", i, ok, err)
				}
				return
			case binary.LittleEndian.Uint32(rest) >= uint32(feeds):
				if ok || !errors.Is(err, ckpt.ErrCorrupt) {
					t.Fatalf("record %d names feed %d of %d: ok=%v err=%v, want ckpt.ErrCorrupt",
						i, binary.LittleEndian.Uint32(rest), feeds, ok, err)
				}
				return
			}
			if !ok || err != nil {
				t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
			}
			if uint32(feed) != binary.LittleEndian.Uint32(rest) || string(a[:]) != string(rest[4:recBytes]) {
				t.Fatalf("record %d = (%d, %v), want the bytes %x", i, feed, a, rest[:recBytes])
			}
			rest = rest[recBytes:]
		}
	})
}
