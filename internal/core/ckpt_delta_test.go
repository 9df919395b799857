package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hitlist6/internal/ckpt"
	"hitlist6/internal/ckpt/ckpttest"
	"hitlist6/internal/ip6"
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
	chain, err := ckpt.OpenChain(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	if levels, err := chain.Levels(ckptUnrespFile); err != nil || len(levels) < 2 {
		t.Fatalf("%s resolves through %d levels (%v), want a full base and an append level", ckptUnrespFile, len(levels), err)
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

// TestAppendChainMatchesFull is the append-format equivalence gate: on
// the durable reference timeline with compaction off, resident and
// spilling, the head after every scan resumes into a service whose full
// checkpoint equals, payload for payload and byte for byte, the full
// checkpoint of a twin service that never wrote a delta. Along the way:
//   - a checkpoint that fails before its commit renames leaves the add
//     logs growing, so the next delta carries both scans' additions;
//   - the sets with replaced shards (prevresp, lastclean_*) are always
//     written full, and a set whose shard log outgrew its bound is
//     written full.
func TestAppendChainMatchesFull(t *testing.T) {
	days := weekly(0, 196)
	const (
		failAt     = 10 // this scan's checkpoint fails before publishing
		overflowAt = 20 // before this scan, one inputseen shard gains 3×logFloor addresses
	)
	for _, spill := range []bool{false, true} {
		scratch := t.TempDir()
		ckdir, refdir := filepath.Join(scratch, "ckpt"), filepath.Join(scratch, "ref")
		mkCfg := func(dir, spillDir string) Config {
			cfg := ckptTinyCfg(dir)
			cfg.CheckpointFullEvery = 1000
			if spill {
				cfg.MemoryBudget = spillBudget
				cfg.SpillDir = filepath.Join(scratch, spillDir)
			}
			return cfg
		}
		label := fmt.Sprintf("spill=%v", spill)
		n, feeds := tinyWorld(t)
		live := NewService(mkCfg(ckdir, "spill-live"), n, feeds, nil)
		refCfg := mkCfg(refdir, "spill-ref")
		refCfg.CheckpointFullEvery = 1 // every checkpoint full
		nr, feedsr := tinyWorld(t)
		ref := NewService(refCfg, nr, feedsr, nil)

		for i, d := range days {
			scan := i + 1
			if scan == overflowAt {
				for k, added := uint64(0), 0; added < 3*64; k++ {
					if a := ip6.AddrFromUint64s(0x2001_0db8_0000_0000, k); ip6.ShardOf(a) == 5 {
						live.inputSeen.Add(a)
						ref.inputSeen.Add(a)
						added++
					}
				}
			}
			runDays(t, ref, []int{d})
			if scan == failAt {
				// Occupy the slot the head would be parked in.
				park := fmt.Sprintf("%s.p%d", ckdir, scan-1)
				if err := os.Mkdir(park, 0o755); err != nil {
					t.Fatal(err)
				}
				if _, err := live.RunScan(context.Background(), d); err == nil {
					t.Fatalf("%s: scan %d: checkpoint into an occupied parent slot succeeded", label, scan)
				}
				if err := os.Remove(park); err != nil {
					t.Fatal(err)
				}
				continue
			}
			runDays(t, live, []int{d})

			m, err := ckpt.ReadManifest(ckdir)
			if err != nil {
				t.Fatal(err)
			}
			wantDepth := i // one level per scan, none for the failed one
			if scan > failAt {
				wantDepth--
			}
			if m.Depth != wantDepth {
				t.Fatalf("%s: scan %d: head depth %d, want %d", label, scan, m.Depth, wantDepth)
			}
			for _, fi := range m.Files {
				switch {
				case fi.Name == ckptRecordsFile && scan == failAt+1:
					if !fi.Append || fi.Count != 2 {
						t.Errorf("%s: scan %d: %s append=%v count=%d, want both scans since the parent", label, scan, fi.Name, fi.Append, fi.Count)
					}
				case fi.Name == ckptPrevRespFile || strings.HasPrefix(fi.Name, "lastclean_"):
					if fi.Append {
						t.Errorf("%s: scan %d: %s appends, but every scan replaces its columns", label, scan, fi.Name)
					}
				case fi.Name == ckptInputSeenFile:
					if fi.Append == (scan == overflowAt || scan == 1) {
						t.Errorf("%s: scan %d: %s append=%v", label, scan, fi.Name, fi.Append)
					}
				}
			}

			cfg := mkCfg(ckdir, fmt.Sprintf("spill-r%d", scan))
			nr2, feedsr2 := tinyWorld(t)
			resumed, err := Resume(ckdir, cfg, nr2, feedsr2, nil)
			if err != nil {
				t.Fatalf("%s: scan %d: resume: %v", label, scan, err)
			}
			fulldir := filepath.Join(scratch, fmt.Sprintf("full%d", scan))
			if err := resumed.Checkpoint(fulldir); err != nil {
				t.Fatalf("%s: scan %d: full checkpoint of the resumed service: %v", label, scan, err)
			}
			if err := resumed.Close(); err != nil {
				t.Fatal(err)
			}
			got, want := payloadsOf(t, fulldir), payloadsOf(t, refdir)
			if len(got) != len(want) {
				t.Errorf("%s: scan %d: %d payloads, the twin's full checkpoint %d", label, scan, len(got), len(want))
			}
			for name, b := range want {
				if !bytes.Equal(got[name], b) {
					t.Errorf("%s: scan %d: resumed %s differs from the twin's (%d vs %d bytes)", label, scan, name, len(got[name]), len(b))
				}
			}
			os.RemoveAll(fulldir)
		}
		for _, s := range []*Service{live, ref} {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// payloadsOf returns every payload of the checkpoint at dir by name.
func payloadsOf(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	m, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(m.Files))
	for _, fi := range m.Files {
		out[fi.Name] = ckpttest.Payload(t, dir, fi.Name)
	}
	return out
}
