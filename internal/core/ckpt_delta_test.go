package core

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hitlist6/internal/ckpt"
	"hitlist6/internal/ckpt/ckpttest"
)

// parkedChainDirs lists the parked delta-parent directories next to a
// checkpoint head (dir.p<scanIndex>), excluding the ".prev" fallback.
func parkedChainDirs(t *testing.T, ckdir string) []string {
	t.Helper()
	parked, err := filepath.Glob(ckdir + ".p[0-9]*")
	if err != nil {
		t.Fatal(err)
	}
	return parked
}

// TestResumeFromDeltaChain is the delta-durability acceptance gate: with
// compaction disabled every checkpoint after the first is a delta, so
// interrupting after k scans leaves a k-1-deep parent chain — and a
// Resume through that chain, continued to the end of the timeline, is
// pinned to the same goldens every full-checkpoint run is. The retained
// unresponsive pool is one of the delta payloads, and the resumed pool
// equals an uninterrupted run's.
func TestResumeFromDeltaChain(t *testing.T) {
	days := weekly(0, 196)
	const k = 14 // the tiny world's first eviction is at scan 13
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	mkCfg := func() Config {
		cfg := ckptTinyCfg(ckdir)
		cfg.CheckpointFullEvery = 1 << 20 // never compact within this run
		cfg.RetainUnresponsive = true
		return cfg
	}

	n, feeds := tinyWorld(t)
	s := NewService(mkCfg(), n, feeds, nil)
	runDays(t, s, days[:k])
	if s.UnresponsivePool().Len() == 0 {
		t.Fatal("unresponsive pool empty at the interrupt: nothing to restore")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := ckpt.ReadManifest(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Depth != k-1 || m.Parent == "" {
		t.Fatalf("head manifest depth=%d parent=%q, want depth=%d and a parent ref", m.Depth, m.Parent, k-1)
	}
	if parked := parkedChainDirs(t, ckdir); len(parked) != k-1 {
		t.Fatalf("parked chain dirs = %v, want %d of them", parked, k-1)
	}
	i := slices.IndexFunc(m.Files, func(fi ckpt.FileInfo) bool { return fi.Name == ckptUnrespFile })
	if i < 0 || !m.Files[i].Delta {
		t.Fatalf("head manifest does not list %s as a delta payload", ckptUnrespFile)
	}

	n2, feeds2 := tinyWorld(t)
	s2, err := Resume(ckdir, mkCfg(), n2, feeds2, nil)
	if err != nil {
		t.Fatalf("resume through delta chain: %v", err)
	}
	if got := len(s2.Records()); got != k {
		t.Fatalf("resumed with %d records, want %d", got, k)
	}
	runDays(t, s2, days[k:])
	compareGolden(t, "reference_tiny.json", goldenFrom(s2.Records(), s2.Snapshots()), "resume from delta chain")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	n3, feeds3 := tinyWorld(t)
	cfg := mkCfg()
	cfg.CheckpointDir = filepath.Join(t.TempDir(), "ckpt")
	ref := NewService(cfg, n3, feeds3, nil)
	runDays(t, ref, days)
	want, got := ref.UnresponsivePool().Merge().Sorted(), s2.UnresponsivePool().Merge().Sorted()
	if !slices.Equal(got, want) {
		t.Fatalf("resumed unresponsive pool %v, uninterrupted run's %v", got, want)
	}
}

// TestDeltaChainCompaction pins the bounded-depth contract: with
// CheckpointFullEvery=4 the chain depth cycles 0,1,2,3,0,… — every
// fourth checkpoint is a full rewrite that also prunes the parked
// parents — and a resume from a mid-chain head still matches the
// goldens.
func TestDeltaChainCompaction(t *testing.T) {
	days := weekly(0, 196)
	const k = 6 // interrupt mid-chain: depth (6-1)%4 = 1
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	mkCfg := func() Config {
		cfg := ckptTinyCfg(ckdir)
		cfg.CheckpointFullEvery = 4
		return cfg
	}

	n, feeds := tinyWorld(t)
	s := NewService(mkCfg(), n, feeds, nil)
	for i, d := range days[:k] {
		runDays(t, s, []int{d})
		m, err := ckpt.ReadManifest(ckdir)
		if err != nil {
			t.Fatal(err)
		}
		wantDepth := i % 4 // checkpoint i+1: full at 1, 5, 9, …
		if m.Depth != wantDepth {
			t.Fatalf("after scan %d: chain depth %d, want %d", i+1, m.Depth, wantDepth)
		}
		if parked := parkedChainDirs(t, ckdir); len(parked) != wantDepth {
			t.Fatalf("after scan %d: parked dirs %v, want %d (full rewrites must prune the chain)",
				i+1, parked, wantDepth)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	n2, feeds2 := tinyWorld(t)
	s2, err := Resume(ckdir, mkCfg(), n2, feeds2, nil)
	if err != nil {
		t.Fatalf("resume mid-chain: %v", err)
	}
	runDays(t, s2, days[k:])
	compareGolden(t, "reference_tiny.json", goldenFrom(s2.Records(), s2.Snapshots()), "resume after compaction")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// deltaChainFixture runs k scans with compaction disabled and returns
// the checkpoint dir plus its parked parent dirs — a head whose restore
// must walk the whole chain.
func deltaChainFixture(t *testing.T, k int) (ckdir string, parked []string) {
	t.Helper()
	ckdir = filepath.Join(t.TempDir(), "ckpt")
	cfg := ckptTinyCfg(ckdir)
	cfg.CheckpointFullEvery = 1 << 20
	n, feeds := tinyWorld(t)
	s := NewService(cfg, n, feeds, nil)
	runDays(t, s, weekly(0, 196)[:k])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	parked = parkedChainDirs(t, ckdir)
	if len(parked) != k-1 {
		t.Fatalf("fixture: parked dirs = %v, want %d", parked, k-1)
	}
	return ckdir, parked
}

// TestResumeRefusesCorruptDeltaParent: a bit-flip anywhere in a parked
// chain parent must make Resume refuse with ckpt.ErrCorrupt — chain
// levels are CRC-verified exactly like the head.
func TestResumeRefusesCorruptDeltaParent(t *testing.T) {
	ckdir, parked := deltaChainFixture(t, 5)

	ckpttest.Edit(t, parked[0], ckptActiveFile, false, flipMiddle)

	cfg := ckptTinyCfg(ckdir)
	cfg.CheckpointFullEvery = 1 << 20
	n, feeds := tinyWorld(t)
	_, err := Resume(ckdir, cfg, n, feeds, nil)
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("resume with bit-flipped chain parent: err = %v, want ErrCorrupt", err)
	}
}

// TestResumeRefusesMissingDeltaParent: a deleted chain parent must make
// Resume refuse with ckpt.ErrCorrupt, never half-load from the
// surviving levels.
func TestResumeRefusesMissingDeltaParent(t *testing.T) {
	ckdir, parked := deltaChainFixture(t, 5)
	if err := os.RemoveAll(parked[1]); err != nil {
		t.Fatal(err)
	}

	cfg := ckptTinyCfg(ckdir)
	cfg.CheckpointFullEvery = 1 << 20
	n, feeds := tinyWorld(t)
	_, err := Resume(ckdir, cfg, n, feeds, nil)
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("resume with missing chain parent: err = %v, want ErrCorrupt", err)
	}
}
