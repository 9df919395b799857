package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"

	"hitlist6/internal/ckpt"
	"hitlist6/internal/ckpt/ckpttest"
)

// fuzzTables are the checkpoint tables FuzzCheckpointTables feeds, in
// the order its which argument selects them.
var fuzzTables = []string{ckptAPDFile, ckptActiveFile, ckptPending64File}

// FuzzCheckpointTables feeds arbitrary bytes to the binary table readers
// of a resume — apd_history.bin (through apd.ImportHistory and
// ApplyHistory), active.bin and pending64.bin — each either
// as a full payload or as an append level over the valid base a durable
// service wrote. A reader must load or fail with ckpt.ErrCorrupt; it
// must never panic, read out of range or size an allocation from a
// count the bytes cannot hold.
func FuzzCheckpointTables(f *testing.F) {
	dir := f.TempDir()
	head, base := filepath.Join(dir, "ck"), filepath.Join(dir, "ck.p1")
	n, feeds := tinyWorld(f)
	s := NewService(DefaultConfig(1), n, feeds, nil)
	runDays(f, s, weekly(0, 70))
	if err := s.Checkpoint(base); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	for i, name := range fuzzTables {
		f.Add(uint8(i), false, ckpttest.Payload(f, base, name))
	}

	f.Fuzz(func(t *testing.T, which uint8, asAppend bool, data []byte) {
		name := fuzzTables[int(which)%len(fuzzTables)]
		m := ckpt.Manifest{Version: ckpt.Version, Files: []ckpt.FileInfo{{
			Name:   name,
			Bytes:  int64(len(data)),
			CRC:    fmt.Sprintf("%016x", crc64.Checksum(data, crc64.MakeTable(crc64.ECMA))),
			Append: asAppend,
		}}}
		if asAppend {
			m.Parent, m.Depth = filepath.Base(base), 1
		}
		manifest, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(head, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(head, ckpt.SegmentName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(head, ckpt.ManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := ckpt.OpenChain(head)
		if err != nil {
			t.Fatal(err)
		}
		levels, err := snap.Levels(name)
		if err != nil {
			t.Fatal(err)
		}

		svc := NewService(DefaultConfig(1), n, feeds, nil)
		defer svc.Close()
		for _, pl := range svc.payloads() {
			if pl.name != name {
				continue
			}
			if err := pl.read(levels, name); err != nil && !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("%s (append %v): %v, want ckpt.ErrCorrupt", name, asAppend, err)
			}
		}
	})
}

// FuzzResumeState feeds arbitrary bytes to Resume as state.json, restamped
// into the valid checkpoint a service wrote so the damage passes the
// manifest's CRC and only the state reader and restoreFrom see it.
// Resume must return a service or an error wrapping ckpt.ErrCorrupt; it
// must never panic, read out of range or size an allocation from a
// count the bytes cannot hold.
func FuzzResumeState(f *testing.F) {
	base := filepath.Join(f.TempDir(), "ck")
	n, feeds := tinyWorld(f)
	s := NewService(DefaultConfig(1), n, feeds, nil)
	runDays(f, s, weekly(0, 70))
	if err := s.Checkpoint(base); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, name := range []string{ckpt.ManifestName, ckpt.SegmentName} {
		b, err := os.ReadFile(filepath.Join(base, name))
		if err != nil {
			f.Fatal(err)
		}
		files[name] = b
	}
	f.Add(ckpttest.Payload(f, base, ckptStateFile))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := filepath.Join(t.TempDir(), "ck")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ckpttest.Edit(t, dir, ckptStateFile, true, func([]byte) []byte { return data })
		svc, err := Resume(dir, DefaultConfig(1), n, feeds, nil)
		if err != nil {
			if !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("Resume: %v, want ckpt.ErrCorrupt", err)
			}
			return
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
