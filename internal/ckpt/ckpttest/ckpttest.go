// Package ckpttest reads and damages committed checkpoints for tests:
// a payload is a section of the checkpoint's segment, not a file, so
// tests that inspect or corrupt one go through these helpers.
package ckpttest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hitlist6/internal/ckpt"
)

// Payload returns payload name's bytes from the checkpoint at dir, cut
// from the segment at the manifest's offset without verification.
func Payload(t testing.TB, dir, name string) []byte {
	t.Helper()
	m, seg := load(t, dir)
	fi := m.Files[index(t, m, name)]
	return bytes.Clone(seg[fi.Offset : fi.Offset+fi.Bytes])
}

// Edit replaces payload name of the checkpoint at dir with edit applied
// to its bytes and rewrites the segment, later payloads moved up or down
// behind it. With restamp the manifest follows: the entry gets the new
// size and CRC and every later offset shifts, so the damage passes Open
// and only the payload's own reader can catch it. Without restamp the
// manifest is left as it was, and Open must refuse the checkpoint.
func Edit(t testing.TB, dir, name string, restamp bool, edit func([]byte) []byte) {
	t.Helper()
	m, seg := load(t, dir)
	i := index(t, m, name)
	fi := m.Files[i]
	body := edit(bytes.Clone(seg[fi.Offset : fi.Offset+fi.Bytes]))
	seg = slices.Concat(seg[:fi.Offset], body, seg[fi.Offset+fi.Bytes:])
	if err := os.WriteFile(filepath.Join(dir, ckpt.SegmentName), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if !restamp {
		return
	}
	shift := int64(len(body)) - fi.Bytes
	m.Files[i].Bytes = int64(len(body))
	m.Files[i].CRC = fmt.Sprintf("%016x", crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
	for j := i + 1; j < len(m.Files); j++ {
		m.Files[j].Offset += shift
	}
	WriteManifest(t, dir, m)
}

// Drop removes payload name from the checkpoint at dir, its bytes from
// the segment and its entry from the manifest, later offsets shifted: the
// checkpoint passes Open as if it had never been written with it.
func Drop(t testing.TB, dir, name string) {
	t.Helper()
	Edit(t, dir, name, true, func([]byte) []byte { return nil })
	m, _ := load(t, dir)
	i := index(t, m, name)
	m.Files = slices.Delete(m.Files, i, i+1)
	WriteManifest(t, dir, m)
}

// WriteManifest replaces the manifest of the checkpoint at dir with m.
func WriteManifest(t testing.TB, dir string, m ckpt.Manifest) {
	t.Helper()
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckpt.ManifestName), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Save saves the checkpoint files at dir and returns a function that
// puts them back, undoing any Edit or WriteManifest in between.
func Save(t testing.TB, dir string) (restore func()) {
	t.Helper()
	saved := make(map[string][]byte)
	for _, name := range []string{ckpt.ManifestName, ckpt.SegmentName} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		saved[name] = b
	}
	return func() {
		t.Helper()
		for name, b := range saved {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func load(t testing.TB, dir string) (ckpt.Manifest, []byte) {
	t.Helper()
	m, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, ckpt.SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	return m, seg
}

func index(t testing.TB, m ckpt.Manifest, name string) int {
	t.Helper()
	i := slices.IndexFunc(m.Files, func(fi ckpt.FileInfo) bool { return fi.Name == name })
	if i < 0 {
		t.Fatalf("ckpttest: %s not in manifest", name)
	}
	return i
}
