package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"

	"hitlist6/internal/ckpt"
	"hitlist6/internal/ip6"
)

// ckptTinyCfg is the reference-scenario config with durability on:
// journaled chunked ingest plus a checkpoint after every scan.
func ckptTinyCfg(ckdir string) Config {
	cfg := DefaultConfig(1)
	cfg.GFWFilterFromDay = 150
	cfg.SnapshotDays = []int{14, 70, 180}
	cfg.CheckpointDir = ckdir
	cfg.CheckpointEvery = 1
	return cfg
}

// TestJournaledIngestMatchesReference pins that merely turning
// durability on — the journaled chunked-ingest path plus a checkpoint
// after every one of the 29 scans — leaves records and snapshots
// bit-identical to the pre-durability goldens.
func TestJournaledIngestMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n, feeds := tinyWorld(t)
		cfg := ckptTinyCfg(filepath.Join(t.TempDir(), "ckpt"))
		cfg.ScanWorkers = workers
		s := NewService(cfg, n, feeds, nil)
		runDays(t, s, weekly(0, 196))
		compareGolden(t, "reference_tiny.json", goldenFrom(s.Records(), s.Snapshots()),
			fmt.Sprintf("journaled workers=%d", workers))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumeMatchesUninterrupted is the durability acceptance gate: a
// timeline interrupted after scan k and resumed from the checkpoint —
// in a fresh process, against a fresh world, with a different worker
// count, fleet size, or memory budget — produces records and snapshots
// bit-identical to the same goldens an uninterrupted run is pinned to.
func TestResumeMatchesUninterrupted(t *testing.T) {
	days := weekly(0, 196)
	cases := []struct {
		label         string
		k             int // scans completed before the "crash"
		first, second func(cfg *Config, scratch string)
	}{
		{"workers 1→4", 10,
			func(c *Config, _ string) { c.ScanWorkers = 1 },
			func(c *Config, _ string) { c.ScanWorkers = 4 }},
		{"workers 4→1", 27,
			func(c *Config, _ string) { c.ScanWorkers = 4 },
			func(c *Config, _ string) { c.ScanWorkers = 1 }},
		{"fleet 2→4", 7,
			func(c *Config, _ string) { c.FleetWorkers = 2 },
			func(c *Config, _ string) { c.FleetWorkers = 4 }},
		{"spill→spill", 12,
			func(c *Config, d string) { c.MemoryBudget = spillBudget; c.SpillDir = filepath.Join(d, "spill1") },
			func(c *Config, d string) { c.MemoryBudget = spillBudget; c.SpillDir = filepath.Join(d, "spill2") }},
		{"spill→resident", 20,
			func(c *Config, d string) { c.MemoryBudget = spillBudget; c.SpillDir = filepath.Join(d, "spill1") },
			func(c *Config, _ string) {}},
	}
	for _, tc := range cases {
		scratch := t.TempDir()
		for _, sub := range []string{"spill1", "spill2"} {
			if err := os.MkdirAll(filepath.Join(scratch, sub), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		ckdir := filepath.Join(scratch, "ckpt")

		n, feeds := tinyWorld(t)
		cfg := ckptTinyCfg(ckdir)
		tc.first(&cfg, scratch)
		s := NewService(cfg, n, feeds, nil)
		runDays(t, s, days[:tc.k])
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", tc.label, err)
		}

		n2, feeds2 := tinyWorld(t)
		cfg2 := ckptTinyCfg(ckdir)
		tc.second(&cfg2, scratch)
		s2, err := Resume(ckdir, cfg2, n2, feeds2, nil)
		if err != nil {
			t.Fatalf("%s: resume: %v", tc.label, err)
		}
		if got := len(s2.Records()); got != tc.k {
			t.Fatalf("%s: resumed with %d records, want %d", tc.label, got, tc.k)
		}
		runDays(t, s2, days[tc.k:])
		compareGolden(t, "reference_tiny.json", goldenFrom(s2.Records(), s2.Snapshots()), "resume "+tc.label)
		if err := s2.Close(); err != nil {
			t.Fatalf("%s: close resumed: %v", tc.label, err)
		}
	}
}

// TestCheckpointPayloadsMatchAcrossShapes pins the checkpoint bytes, not
// just the outputs, to the timeline: the APD history and the seen-/64
// table are written in first-seen order without sorting, so that order
// must be the same for every execution shape. On a generated world with
// a checkpoint after every scan, the final unsharded payloads are
// byte-equal across worker counts, a spill budget, and an interrupt
// after scan 5 followed by Resume.
func TestCheckpointPayloadsMatchAcrossShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-world checkpoint payloads in -short mode")
	}
	var days []int
	for d := 0; d <= 140; d += 14 {
		days = append(days, d)
	}
	payloads := []string{ckptAPDFile, ckptSeen64File, ckptActiveFile, ckptStateFile}
	run := func(label string, shape func(cfg *Config, scratch string), interruptAfter int) map[string][]byte {
		scratch := t.TempDir()
		ckdir := filepath.Join(scratch, "ckpt")
		cfg := DefaultConfig(23)
		cfg.CheckpointDir = ckdir
		cfg.CheckpointEvery = 1
		shape(&cfg, scratch)
		w, feeds := generatedWorld(t, 23)
		s := NewService(cfg, w, feeds, nil)
		if interruptAfter > 0 {
			runDays(t, s, days[:interruptAfter])
			if err := s.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
			w2, feeds2 := generatedWorld(t, 23)
			var err error
			if s, err = Resume(ckdir, cfg, w2, feeds2, nil); err != nil {
				t.Fatalf("%s: resume: %v", label, err)
			}
			runDays(t, s, days[interruptAfter:])
		} else {
			runDays(t, s, days)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
		out := make(map[string][]byte, len(payloads))
		for _, name := range payloads {
			b, err := os.ReadFile(filepath.Join(ckdir, name))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			out[name] = b
		}
		return out
	}

	base := run("workers 1", func(c *Config, _ string) { c.ScanWorkers = 1 }, 0)
	// 4-byte count plus 17-byte prefixes: the tables must hold enough
	// rows for their order to matter.
	for _, name := range []string{ckptAPDFile, ckptSeen64File} {
		if len(base[name]) < 4+100*17 {
			t.Fatalf("%s is only %d bytes: the scenario exercises too little", name, len(base[name]))
		}
	}
	for _, tc := range []struct {
		label          string
		shape          func(cfg *Config, scratch string)
		interruptAfter int
	}{
		{"workers 4", func(c *Config, _ string) { c.ScanWorkers = 4 }, 0},
		{"spill budget", func(c *Config, d string) { c.MemoryBudget = spillBudget; c.SpillDir = filepath.Join(d, "spill") }, 0},
		{"resume after scan 5", func(c *Config, _ string) { c.ScanWorkers = 2 }, 5},
	} {
		got := run(tc.label, tc.shape, tc.interruptAfter)
		for _, name := range payloads {
			if !bytes.Equal(got[name], base[name]) {
				t.Errorf("%s: %s differs from workers 1 (%d vs %d bytes)", tc.label, name, len(got[name]), len(base[name]))
			}
		}
	}
}

// recommit replaces payload name of the checkpoint at dir with data and
// re-stamps its manifest entry (size and CRC), so the damage is one
// Resume's CRC check cannot see and the payload reader must catch.
func recommit(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	m, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range m.Files {
		if m.Files[i].Name == name {
			m.Files[i].Bytes = int64(len(data))
			m.Files[i].CRC = fmt.Sprintf("%016x", crc64.Checksum(data, crc64.MakeTable(crc64.ECMA)))
			found = true
		}
	}
	if !found {
		t.Fatalf("%s not in manifest", name)
	}
	mb, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckpt.ManifestName), mb, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRefusesMalformedTables: the binary prefix tables fail closed
// on damage that passes the CRC check — a header count the file cannot
// hold, a prefix length above 128, a prefix listed twice — with
// ckpt.ErrCorrupt from Resume, never a panic or a huge allocation.
func TestResumeRefusesMalformedTables(t *testing.T) {
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	n, feeds := tinyWorld(t)
	s := NewService(ckptTinyCfg(ckdir), n, feeds, nil)
	runDays(t, s, weekly(0, 28))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(ckdir, ckpt.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ckptAPDFile, ckptSeen64File} {
		if b, err := os.ReadFile(filepath.Join(ckdir, name)); err != nil || binary.LittleEndian.Uint32(b) == 0 {
			t.Fatalf("%s: empty or unreadable (%v): nothing to damage", name, err)
		}
	}

	const rec = ip6.AddrBytes + 1 // one prefix record
	withCount := func(b []byte, n uint32) []byte {
		binary.LittleEndian.PutUint32(b, n)
		return b
	}
	hugeCount := func(b []byte) []byte { return withCount(b, 0xffffffff) }
	badLen := func(b []byte) []byte { b[4+ip6.AddrBytes] = 200; return b }
	// dupFirst appends a copy of the table's first entry, entryLen bytes.
	dupFirst := func(entryLen func(b []byte) int) func([]byte) []byte {
		return func(b []byte) []byte {
			b = append(b, b[4:4+entryLen(b)]...)
			return withCount(b, binary.LittleEndian.Uint32(b)+1)
		}
	}
	prefixEntry := func([]byte) int { return rec }
	apdEntry := func(b []byte) int { return rec + 2 + 2*int(binary.LittleEndian.Uint16(b[4+rec:])) }

	for _, tc := range []struct {
		name   string
		defect func([]byte) []byte
	}{
		{ckptAPDFile, hugeCount},
		{ckptAPDFile, badLen},
		{ckptAPDFile, dupFirst(apdEntry)},
		{ckptSeen64File, hugeCount},
		{ckptSeen64File, badLen},
		{ckptSeen64File, dupFirst(prefixEntry)},
		{ckptPending64File, hugeCount},
	} {
		path := filepath.Join(ckdir, tc.name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recommit(t, ckdir, tc.name, tc.defect(bytes.Clone(orig)))

		n2, feeds2 := tinyWorld(t)
		s2, err := Resume(ckdir, ckptTinyCfg(ckdir), n2, feeds2, nil)
		if !errors.Is(err, ckpt.ErrCorrupt) {
			if s2 != nil {
				s2.Close()
			}
			t.Errorf("%s: resume from a malformed table: err = %v, want ErrCorrupt", tc.name, err)
		}

		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(ckdir, ckpt.ManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The restored checkpoint loads: the damage, not the fixture, failed.
	n3, feeds3 := tinyWorld(t)
	s3, err := Resume(ckdir, ckptTinyCfg(ckdir), n3, feeds3, nil)
	if err != nil {
		t.Fatalf("resume from the undamaged checkpoint: %v", err)
	}
	s3.Close()
}

// TestResumeGenerationContinuity pins the serving cadence across a
// restart: with ServeEvery=3 an uninterrupted 7-scan run publishes
// generations {1,1,1,2,2,2,3}; interrupting after scan 4 and resuming
// must not republish the stale snapshot (servers answer SERVFAIL until
// the next finalization) and must continue the same sequence — scans 5
// and 6 gated, scan 7 publishing generation 3, not restarting at 1.
func TestResumeGenerationContinuity(t *testing.T) {
	days := weekly(0, 42) // 7 scans
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	mkCfg := func() Config {
		cfg := DefaultConfig(1)
		cfg.ServeSnapshots = true
		cfg.ServeEvery = 3
		cfg.CheckpointDir = ckdir
		cfg.CheckpointEvery = 1
		return cfg
	}

	n, feeds := tinyWorld(t)
	s := NewService(mkCfg(), n, feeds, nil)
	runDays(t, s, days[:4])
	if g := s.QueryHandle().Current().Generation; g != 2 {
		t.Fatalf("generation after 4 scans = %d, want 2", g)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	n2, feeds2 := tinyWorld(t)
	s2, err := Resume(ckdir, mkCfg(), n2, feeds2, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer s2.Close()
	if s2.QueryHandle().Current() != nil {
		t.Fatal("resume republished a stale snapshot")
	}
	var gens []uint64
	for _, d := range days[4:] {
		runDays(t, s2, []int{d})
		var g uint64
		if cur := s2.QueryHandle().Current(); cur != nil {
			g = cur.Generation
		}
		gens = append(gens, g)
	}
	want := []uint64{0, 0, 3} // scans 5, 6 gated; scan 7 publishes
	for i := range want {
		if gens[i] != want[i] {
			t.Fatalf("generations after resume = %v, want %v", gens, want)
		}
	}
}

// TestResumeRefusesCorruptCheckpoint: a bit-flip in any payload file
// must make Resume refuse loudly with ckpt.ErrCorrupt — never
// half-load.
func TestResumeRefusesCorruptCheckpoint(t *testing.T) {
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	n, feeds := tinyWorld(t)
	s := NewService(ckptTinyCfg(ckdir), n, feeds, nil)
	runDays(t, s, weekly(0, 28))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(ckdir, ckptActiveFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	n2, feeds2 := tinyWorld(t)
	_, err = Resume(ckdir, ckptTinyCfg(ckdir), n2, feeds2, nil)
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("resume from bit-flipped checkpoint: err = %v, want ErrCorrupt", err)
	}
}

// TestResumeRefusesConfigMismatch: a checkpoint taken under one config
// digest must not silently restore into a service with different
// pipeline parameters (here: a different seed).
func TestResumeRefusesConfigMismatch(t *testing.T) {
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	n, feeds := tinyWorld(t)
	s := NewService(ckptTinyCfg(ckdir), n, feeds, nil)
	runDays(t, s, weekly(0, 14))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	n2, feeds2 := tinyWorld(t)
	cfg := ckptTinyCfg(ckdir)
	cfg.Seed = 2
	_, err := Resume(ckdir, cfg, n2, feeds2, nil)
	if err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("resume with mismatched config: err = %v, want config mismatch", err)
	}
}

// TestResumeDiscardsStaleJournal: a journal file next to the checkpoint
// is debris from a crash mid-scan; Resume must discard it and the
// resumed timeline must still match the uninterrupted goldens.
func TestResumeDiscardsStaleJournal(t *testing.T) {
	days := weekly(0, 196)
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	n, feeds := tinyWorld(t)
	s := NewService(ckptTinyCfg(ckdir), n, feeds, nil)
	const k = 9
	runDays(t, s, days[:k])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the SIGKILL-mid-ingest debris: a finished journal holding
	// candidates of the scan that never committed.
	jw, err := ckpt.CreateJournal(JournalPath(ckdir))
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Add(0, ip6.MustParseAddr("2001:100::80")); err != nil {
		t.Fatal(err)
	}
	if err := jw.Finish(); err != nil {
		t.Fatal(err)
	}

	n2, feeds2 := tinyWorld(t)
	s2, err := Resume(ckdir, ckptTinyCfg(ckdir), n2, feeds2, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if _, _, ok, err := ckpt.JournalStat(JournalPath(ckdir)); err != nil || ok {
		t.Fatalf("stale journal not discarded on resume (ok=%v, err=%v)", ok, err)
	}
	runDays(t, s2, days[k:])
	compareGolden(t, "reference_tiny.json", goldenFrom(s2.Records(), s2.Snapshots()), "resume after stale journal")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRejectsSpillDirCollision: the checkpoint directory and
// the spill scratch directory must differ — spill compaction deletes
// and rewrites files under its dir, which would destroy a checkpoint.
func TestCheckpointRejectsSpillDirCollision(t *testing.T) {
	dir := t.TempDir()
	n, feeds := tinyWorld(t)
	cfg := DefaultConfig(1)
	cfg.MemoryBudget = spillBudget
	cfg.SpillDir = dir
	s := NewService(cfg, n, feeds, nil)
	defer s.Close()
	runDays(t, s, []int{0})
	if err := s.Checkpoint(dir); err == nil {
		t.Fatal("checkpoint into the spill dir succeeded; want refusal")
	}
}
