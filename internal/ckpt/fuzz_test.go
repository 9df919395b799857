package ckpt_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hitlist6/internal/ckpt"
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
