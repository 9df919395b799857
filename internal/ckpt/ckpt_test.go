package ckpt_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hitlist6/internal/ckpt"
	"hitlist6/internal/ckpt/ckpttest"
)

// writeCheckpoint commits a checkpoint with the given payloads, written
// in name order.
func writeCheckpoint(t *testing.T, dest string, files map[string]string, m ckpt.Manifest) {
	t.Helper()
	w, err := ckpt.Begin(dest)
	if err != nil {
		t.Fatal(err)
	}
	commitPayloads(t, w, files, m)
}

// commitPayloads writes files into w in name order and commits it.
func commitPayloads(t *testing.T, w *ckpt.Writer, files map[string]string, m ckpt.Manifest) {
	t.Helper()
	var names []string
	for name := range files {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f, err := w.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(files[name])); err != nil {
			t.Fatal(err)
		}
		f.SetCount(int64(len(files[name])))
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(m); err != nil {
		t.Fatal(err)
	}
}

// readPayload returns payload name's bytes through Snapshot.Open.
func readPayload(t *testing.T, s *ckpt.Snapshot, name string) string {
	t.Helper()
	sec, err := s.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Close()
	b, err := io.ReadAll(sec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// dirEntries lists the names in dir.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestCommitOpenRoundtrip(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "ckpt")
	writeCheckpoint(t, dest,
		map[string]string{"a.bin": "alpha", "b.bin": "bravo-bravo"},
		ckpt.Manifest{ScanIndex: 3, LastDay: 21, Generation: 7})

	s, err := ckpt.Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Manifest
	if m.Version != ckpt.Version || m.ScanIndex != 3 || m.LastDay != 21 || m.Generation != 7 {
		t.Fatalf("manifest = %+v", m)
	}
	if !s.Has("a.bin") || !s.Has("b.bin") || s.Has("c.bin") {
		t.Fatal("Has reports wrong payload set")
	}
	if fi := m.Files[1]; fi.Name != "b.bin" || fi.Offset != 5 || fi.Bytes != 11 || fi.Count != 11 {
		t.Fatalf("second manifest entry = %+v, want b.bin at offset 5", fi)
	}
	if got := readPayload(t, s, "a.bin"); got != "alpha" {
		t.Fatalf("payload a.bin = %q", got)
	}
	if got := readPayload(t, s, "b.bin"); got != "bravo-bravo" {
		t.Fatalf("payload b.bin = %q", got)
	}
	if _, err := s.Open("c.bin"); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("Open(c.bin) err = %v, want ErrCorrupt", err)
	}
	// No staging or .prev debris after a clean commit.
	if _, err := os.Stat(dest + ".prev"); !os.IsNotExist(err) {
		t.Fatalf(".prev left behind: %v", err)
	}
}

// TestCommitLeavesManifestAndSegment: whatever the payload count, full
// or delta, a committed checkpoint directory is exactly the manifest and
// the one segment every payload went into.
func TestCommitLeavesManifestAndSegment(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "ckpt")
	want := []string{ckpt.ManifestName, ckpt.SegmentName}
	slices.Sort(want)
	writeCheckpoint(t, dest, map[string]string{"a.bin": "alpha", "b.bin": "bravo", "c.bin": ""}, ckpt.Manifest{ScanIndex: 1})
	if got := dirEntries(t, dest); !slices.Equal(got, want) {
		t.Fatalf("full checkpoint holds %v, want %v", got, want)
	}
	w, err := ckpt.BeginDelta(dest)
	if err != nil {
		t.Fatal(err)
	}
	commitPayloads(t, w, map[string]string{"a.bin": "alpha2"}, ckpt.Manifest{ScanIndex: 2})
	for _, dir := range []string{dest, dest + ".p1"} {
		if got := dirEntries(t, dir); !slices.Equal(got, want) {
			t.Fatalf("%s holds %v, want %v", dir, got, want)
		}
	}
}

func TestCommitReplacesExisting(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "ckpt")
	writeCheckpoint(t, dest, map[string]string{"a.bin": "old"}, ckpt.Manifest{ScanIndex: 1})
	writeCheckpoint(t, dest, map[string]string{"a.bin": "new!", "b.bin": "added"}, ckpt.Manifest{ScanIndex: 2})

	s, err := ckpt.Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	if s.Manifest.ScanIndex != 2 {
		t.Fatalf("scan index = %d, want 2", s.Manifest.ScanIndex)
	}
	if got := readPayload(t, s, "a.bin"); got != "new!" {
		t.Fatalf("payload a.bin = %q", got)
	}
	if _, err := os.Stat(dest + ".prev"); !os.IsNotExist(err) {
		t.Fatalf(".prev left behind: %v", err)
	}
}

func TestAbortLeavesNothing(t *testing.T) {
	parent := t.TempDir()
	dest := filepath.Join(parent, "ckpt")
	w, err := ckpt.Begin(dest)
	if err != nil {
		t.Fatal(err)
	}
	f, err := w.Create("a.bin")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("doomed"))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("abort left %d entries in %s", len(entries), parent)
	}
}

// TestCreateRefusesWhileOpen: payloads share one segment, so a second
// Create before the first File is closed must be refused — interleaved
// writes would corrupt both sections silently — and so must a write
// through a closed File or a Commit with a File still open.
func TestCreateRefusesWhileOpen(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "ckpt")
	w, err := ckpt.Begin(dest)
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.Create("a.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Create("b.bin"); err == nil {
		t.Fatal("second Create with a.bin open succeeded; want refusal")
	}
	a.Write([]byte("alpha"))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("late")); err == nil {
		t.Fatal("write through a closed File succeeded; want refusal")
	}
	if _, err := w.Create("a.bin"); err == nil {
		t.Fatal("Create of a payload already written succeeded; want refusal")
	}
	b, err := w.Create("b.bin")
	if err != nil {
		t.Fatal(err)
	}
	b.Write([]byte("bravo"))
	if err := w.Commit(ckpt.Manifest{}); err == nil {
		t.Fatal("Commit with b.bin open succeeded; want refusal")
	}
	if _, err := os.Stat(dest); !os.IsNotExist(err) {
		t.Fatalf("refused commit published %s: %v", dest, err)
	}
}

// TestResolvePrevFallback covers the narrow commit crash window: the
// previous checkpoint parked at dest+".prev" but the new one not yet
// renamed into place. Resolve must fall back to the parked copy and
// Open must validate it fully.
func TestResolvePrevFallback(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "ckpt")
	writeCheckpoint(t, dest, map[string]string{"a.bin": "survivor"}, ckpt.Manifest{ScanIndex: 5})
	// Simulate the crash: dest was renamed away, replacement never landed.
	if err := os.Rename(dest, dest+".prev"); err != nil {
		t.Fatal(err)
	}

	resolved, err := ckpt.Resolve(dest)
	if err != nil {
		t.Fatal(err)
	}
	if resolved != dest+".prev" {
		t.Fatalf("resolved %s, want %s", resolved, dest+".prev")
	}
	s, err := ckpt.Open(resolved)
	if err != nil {
		t.Fatal(err)
	}
	if s.Manifest.ScanIndex != 5 {
		t.Fatalf("scan index = %d, want 5", s.Manifest.ScanIndex)
	}
}

func TestResolveMissing(t *testing.T) {
	_, err := ckpt.Resolve(filepath.Join(t.TempDir(), "nope"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

// TestChainDirsGlobMeta: a checkpoint path containing glob
// metacharacters must still find its parked delta parents — a full
// commit prunes them, and with the head gone Resolve falls back to the
// newest one.
func TestChainDirsGlobMeta(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "run[1]", "ck")
	commit := func(scan int, delta bool) {
		t.Helper()
		begin := ckpt.Begin
		if delta {
			begin = ckpt.BeginDelta
		}
		w, err := begin(dest)
		if err != nil {
			t.Fatal(err)
		}
		commitPayloads(t, w, map[string]string{"a.bin": "scan"}, ckpt.Manifest{ScanIndex: scan})
	}
	commit(1, false)
	commit(2, true)
	commit(3, true)
	commit(4, false)
	if got := dirEntries(t, filepath.Dir(dest)); !slices.Equal(got, []string{"ck"}) {
		t.Fatalf("after the final full commit %s holds %v, want only the head", filepath.Dir(dest), got)
	}
	commit(5, true)
	// The crash window of a delta commit: head parked, new head not yet
	// published.
	if err := os.RemoveAll(dest); err != nil {
		t.Fatal(err)
	}
	resolved, err := ckpt.Resolve(dest)
	if err != nil {
		t.Fatal(err)
	}
	if resolved != dest+".p4" {
		t.Fatalf("resolved %s, want %s", resolved, dest+".p4")
	}
}

// TestOpenRefusesCorruption: every damage mode — a payload truncated,
// extended, bit-flipped or cut out of the segment, a segment that the
// manifest's entries do not tile exactly or that is missing, garbage or
// version-skewed manifests, an Append payload without a parent to append
// to or an Append flag that is not a bool — must refuse with ErrCorrupt
// rather than half-load.
func TestOpenRefusesCorruption(t *testing.T) {
	editPayload := func(edit func([]byte) []byte) func(*testing.T, string) {
		return func(t *testing.T, dest string) { ckpttest.Edit(t, dest, "a.bin", false, edit) }
	}
	editManifest := func(edit func(*ckpt.Manifest)) func(*testing.T, string) {
		return func(t *testing.T, dest string) {
			m, err := ckpt.ReadManifest(dest)
			if err != nil {
				t.Fatal(err)
			}
			edit(&m)
			ckpttest.WriteManifest(t, dest, m)
		}
	}
	writeManifest := func(data string) func(*testing.T, string) {
		return func(t *testing.T, dest string) {
			if err := os.WriteFile(filepath.Join(dest, ckpt.ManifestName), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		label  string
		damage func(t *testing.T, dest string)
	}{
		{"truncated payload", editPayload(func(b []byte) []byte { return b[:2] })},
		{"extended payload", editPayload(func(b []byte) []byte { return append(b, 'x') })},
		{"bit flip", editPayload(func(b []byte) []byte { b[0] ^= 0x01; return b })},
		{"missing payload", editPayload(func([]byte) []byte { return nil })},
		{"missing segment", func(t *testing.T, dest string) {
			if err := os.Remove(filepath.Join(dest, ckpt.SegmentName)); err != nil {
				t.Fatal(err)
			}
		}},
		{"trailing segment bytes", func(t *testing.T, dest string) {
			f, err := os.OpenFile(filepath.Join(dest, ckpt.SegmentName), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("x"))
			f.Close()
		}},
		{"gap", editManifest(func(m *ckpt.Manifest) { m.Files[1].Offset++ })},
		{"overlap", editManifest(func(m *ckpt.Manifest) { m.Files[1].Offset-- })},
		{"offset past end", editManifest(func(m *ckpt.Manifest) { m.Files[1].Offset = 1 << 40 })},
		{"size past end", editManifest(func(m *ckpt.Manifest) { m.Files[1].Bytes += 1 << 40 })},
		{"negative size", editManifest(func(m *ckpt.Manifest) { m.Files[0].Bytes = -1 })},
		{"duplicate name", editManifest(func(m *ckpt.Manifest) { m.Files[1].Name = m.Files[0].Name })},
		{"append without parent", editManifest(func(m *ckpt.Manifest) { m.Files[0].Append = true })},
		{"append not a bool", func(t *testing.T, dest string) {
			path := filepath.Join(dest, ckpt.ManifestName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data = bytes.Replace(data, []byte(`"name": "a.bin",`), []byte(`"name": "a.bin", "append": "zz",`), 1)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version 1", editManifest(func(m *ckpt.Manifest) { m.Version = 1 })},
		{"version 2", editManifest(func(m *ckpt.Manifest) { m.Version = 2 })},
		{"version 3", editManifest(func(m *ckpt.Manifest) { m.Version = 3 })},
		{"version 4", editManifest(func(m *ckpt.Manifest) { m.Version = 4 })},
		{"version 5", editManifest(func(m *ckpt.Manifest) { m.Version = 5 })},
		{"garbage manifest", writeManifest("{\"version\": 5,")},
		{"version skew", writeManifest("{\"version\": 99}\n")},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			dest := filepath.Join(t.TempDir(), "ckpt")
			writeCheckpoint(t, dest, map[string]string{"a.bin": "payload bytes", "b.bin": "more payload bytes"}, ckpt.Manifest{})
			if _, err := ckpt.Open(dest); err != nil {
				t.Fatalf("undamaged checkpoint: %v", err)
			}
			tc.damage(t, dest)
			if _, err := ckpt.Open(dest); !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestAppendLevelsResolveToFullBase: a payload resolves from the newest
// level holding it in full up through every Append level above, oldest
// first; a delta level without the payload holds no change and is left
// out. A full base without the payload, and Append levels with no full
// copy under them — the payload never written full, or a snapshot opened
// without its chain — are ErrCorrupt.
func TestAppendLevelsResolveToFullBase(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "ckpt")
	writeCheckpoint(t, dest, map[string]string{"a.bin": "a1", "b.bin": "b1", "e.bin": "e1", "f.bin": "f1"}, ckpt.Manifest{ScanIndex: 1})
	// commitDelta commits a delta at scan with the named payloads, the
	// ones prefixed "+" marked Append.
	commitDelta := func(scan int, payloads ...string) {
		t.Helper()
		w, err := ckpt.BeginDelta(dest)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			name, appendOnly := strings.CutPrefix(p, "+")
			f, err := w.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(f, "%s at %d", name, scan)
			if appendOnly {
				f.SetAppend()
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Commit(ckpt.Manifest{ScanIndex: scan}); err != nil {
			t.Fatal(err)
		}
	}
	// a.bin appends at both deltas; b.bin is rewritten full at scan 2;
	// c.bin appears full at scan 3; d.bin appends at scan 3 with nothing
	// under it; e.bin is unchanged at scan 2 and appends at scan 3; f.bin
	// is unchanged at both.
	commitDelta(2, "+a.bin", "b.bin")
	commitDelta(3, "+a.bin", "+b.bin", "c.bin", "+d.bin", "+e.bin")

	head, err := ckpt.OpenChain(dest)
	if err != nil {
		t.Fatal(err)
	}
	dirs := func(levels []*ckpt.Snapshot) []string {
		var out []string
		for _, lvl := range levels {
			out = append(out, filepath.Base(lvl.Dir))
		}
		return out
	}
	for name, want := range map[string][]string{
		"a.bin": {"ckpt.p1", "ckpt.p2", "ckpt"},
		"b.bin": {"ckpt.p2", "ckpt"},
		"c.bin": {"ckpt"},
		"e.bin": {"ckpt.p1", "ckpt"},
		"f.bin": {"ckpt.p1"},
	} {
		levels, err := head.Levels(name)
		if err != nil || !slices.Equal(dirs(levels), want) {
			t.Errorf("Levels(%s) = %v, %v; want %v", name, dirs(levels), err, want)
		}
	}
	for _, name := range []string{"d.bin", "missing.bin"} {
		if _, err := head.Levels(name); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("Levels(%s) err = %v, want ErrCorrupt", name, err)
		}
	}
	alone, err := ckpt.Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.bin", "f.bin"} {
		if _, err := alone.Levels(name); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("Levels(%s) on a head opened without its chain: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestCreateRejectsBadNames(t *testing.T) {
	w, err := ckpt.Begin(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	for _, name := range []string{ckpt.ManifestName, "sub/file.bin", "../escape"} {
		if _, err := w.Create(name); err == nil {
			t.Fatalf("Create(%q) succeeded; want refusal", name)
		}
	}
}
