package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hitlist6/internal/ckpt"
	"hitlist6/internal/ckpt/ckpttest"
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
// after scan 5 followed by Resume. A full checkpoint of the final state
// into a fresh directory — every set shard sorted on the worker pool —
// is byte-equal payload for payload at Workers 1, 2, 4 and 8, spilling
// or resumed.
func TestCheckpointPayloadsMatchAcrossShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-world checkpoint payloads in -short mode")
	}
	var days []int
	for d := 0; d <= 140; d += 14 {
		days = append(days, d)
	}
	payloads := []string{ckptAPDFile, ckptSeen64File, ckptActiveFile, ckptStateFile}
	// run returns the final head's unsharded payloads, and every payload
	// of a full checkpoint of the final state.
	run := func(label string, shape func(cfg *Config, scratch string), interruptAfter int) (map[string][]byte, map[string][]byte) {
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
		fulldir := filepath.Join(scratch, "full")
		if err := s.Checkpoint(fulldir); err != nil {
			t.Fatalf("%s: full checkpoint: %v", label, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
		out := make(map[string][]byte, len(payloads))
		for _, name := range payloads {
			out[name] = ckpttest.Payload(t, ckdir, name)
		}
		m, err := ckpt.ReadManifest(fulldir)
		if err != nil {
			t.Fatal(err)
		}
		full := make(map[string][]byte, len(m.Files))
		for _, fi := range m.Files {
			if fi.Delta {
				t.Fatalf("%s: %s is a delta in a fresh directory", label, fi.Name)
			}
			full[fi.Name] = ckpttest.Payload(t, fulldir, fi.Name)
		}
		return out, full
	}

	base, baseFull := run("workers 1", func(c *Config, _ string) { c.ScanWorkers = 1 }, 0)
	// Enough addresses that most shards hold several, so the full
	// checkpoint's .hl6 and active.bin shards are really sorted.
	if n := len(baseFull[ckptInputSeenFile]); n < (16+8*ip6.AddrShards)+ip6.AddrShards*4*ip6.AddrBytes {
		t.Fatalf("%s is only %d bytes: the scenario exercises too little", ckptInputSeenFile, n)
	}
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
		{"workers 8", func(c *Config, _ string) { c.ScanWorkers = 8 }, 0},
		{"spill budget", func(c *Config, d string) { c.MemoryBudget = spillBudget; c.SpillDir = filepath.Join(d, "spill") }, 0},
		{"resume after scan 5", func(c *Config, _ string) { c.ScanWorkers = 2 }, 5},
	} {
		got, gotFull := run(tc.label, tc.shape, tc.interruptAfter)
		for _, name := range payloads {
			if !bytes.Equal(got[name], base[name]) {
				t.Errorf("%s: %s differs from workers 1 (%d vs %d bytes)", tc.label, name, len(got[name]), len(base[name]))
			}
		}
		if len(gotFull) != len(baseFull) {
			t.Errorf("%s: full checkpoint holds %d payloads, workers 1 %d", tc.label, len(gotFull), len(baseFull))
		}
		for name, want := range baseFull {
			if b, ok := gotFull[name]; !ok || !bytes.Equal(b, want) {
				t.Errorf("%s: full checkpoint %s differs from workers 1 (%d vs %d bytes)", tc.label, name, len(b), len(want))
			}
		}
	}
}

// manifestDigest hashes what a manifest says about its payloads — each
// file's name, size, CRC-64, item count and delta bitmap, in file order —
// together with the chain parent and depth. Cursor fields (scan index,
// last day, generation) are left out: the records goldens pin those.
func manifestDigest(m ckpt.Manifest) string {
	h := sha256.New()
	for _, fi := range m.Files {
		fmt.Fprintf(h, "%s %d %s %d %t %s\n", fi.Name, fi.Bytes, fi.CRC, fi.Count, fi.Delta, fi.DeltaShards)
	}
	fmt.Fprintf(h, "parent %q depth %d\n", m.Parent, m.Depth)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCheckpointManifestsMatchGolden pins the bytes Checkpoint writes,
// not just the outputs a resume reproduces: after every scan of the
// durable reference timeline the head manifest's digest matches
// testdata/ckpt_manifests_tiny.json, resident and with a spill budget,
// at Workers 1 and 4 — one golden for all four shapes. Payload order,
// sizes, CRCs and delta bitmaps are all in the digest. Regenerate with
// -update-ref only for a change that means to alter the checkpoint
// format.
func TestCheckpointManifestsMatchGolden(t *testing.T) {
	const golden = "ckpt_manifests_tiny.json"
	run := func(spill bool, workers int) []string {
		scratch := t.TempDir()
		ckdir := filepath.Join(scratch, "ckpt")
		cfg := ckptTinyCfg(ckdir)
		cfg.ScanWorkers = workers
		if spill {
			cfg.MemoryBudget = spillBudget
			cfg.SpillDir = filepath.Join(scratch, "spill")
		}
		n, feeds := tinyWorld(t)
		s := NewService(cfg, n, feeds, nil)
		var digests []string
		for _, d := range weekly(0, 196) {
			runDays(t, s, []int{d})
			m, err := ckpt.ReadManifest(ckdir)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, manifestDigest(m))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return digests
	}

	if *updateRef {
		data, err := json.MarshalIndent(run(false, 1), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(refPath(golden), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(refPath(golden))
	if err != nil {
		t.Fatalf("manifest golden missing (run with -update-ref to capture): %v", err)
	}
	var want []string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, spill := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			got := run(spill, workers)
			if len(got) != len(want) {
				t.Fatalf("spill=%v workers=%d: %d checkpoints, golden has %d", spill, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("spill=%v workers=%d: manifest after scan %d differs from the golden", spill, workers, i+1)
					break
				}
			}
		}
	}
}

// TestResumeRefusesMalformedTables: the binary tables fail closed on
// damage that passes the CRC check — a header count the file cannot
// hold, a prefix length above 128, a prefix listed twice; in active.bin
// a record counted under the wrong shard, a shard out of order, bytes
// past the last record — with ckpt.ErrCorrupt from Resume, never a
// panic, a huge allocation or a store the next scan trips over.
func TestResumeRefusesMalformedTables(t *testing.T) {
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	n, feeds := tinyWorld(t)
	s := NewService(ckptTinyCfg(ckdir), n, feeds, nil)
	runDays(t, s, weekly(0, 28))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	restore := ckpttest.Save(t, ckdir)
	for _, name := range []string{ckptAPDFile, ckptSeen64File} {
		if b := ckpttest.Payload(t, ckdir, name); binary.LittleEndian.Uint32(b) == 0 {
			t.Fatalf("%s: empty: nothing to damage", name)
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

	// active.bin: a uint64 count per shard, then the shards' records.
	shardCount := func(b []byte, sh int) int { return int(binary.LittleEndian.Uint64(b[8*sh:])) }
	addCount := func(b []byte, sh, d int) {
		binary.LittleEndian.PutUint64(b[8*sh:], uint64(shardCount(b, sh)+d))
	}
	// firstShard returns the first non-empty shard after shard 0 and the
	// offset of its first record.
	firstShard := func(b []byte) (int, int) {
		off := 8 * ip6.AddrShards
		for sh := 0; sh < ip6.AddrShards; sh++ {
			if sh > 0 && shardCount(b, sh) > 0 {
				return sh, off
			}
			off += shardCount(b, sh) * activeRecLen
		}
		t.Fatal("no active records after shard 0")
		return 0, 0
	}
	activeHuge := func(b []byte) []byte { binary.LittleEndian.PutUint64(b, 1<<60); return b }
	// Count a shard's first record as the previous shard's last.
	moveRecord := func(b []byte) []byte {
		sh, _ := firstShard(b)
		addCount(b, sh-1, 1)
		addCount(b, sh, -1)
		return b
	}
	// insertAfterFirst files a second record right after a shard's first
	// one: a copy of it, or the nearest lower address in the same shard.
	insertAfterFirst := func(lower bool) func([]byte) []byte {
		return func(b []byte) []byte {
			sh, off := firstShard(b)
			r := bytes.Clone(b[off : off+activeRecLen])
			if lower {
				a := ip6.AddrFrom16([ip6.AddrBytes]byte(r[:ip6.AddrBytes])).Prev()
				for ip6.ShardOf(a) != sh {
					a = a.Prev()
				}
				copy(r, a[:])
			}
			addCount(b, sh, 1)
			return slices.Concat(b[:off+activeRecLen], r, b[off+activeRecLen:])
		}
	}
	trailing := func(b []byte) []byte { return append(b, make([]byte, activeRecLen)...) }
	apdEntry := func(b []byte) int { return rec + 2 + 2*int(binary.LittleEndian.Uint16(b[4+rec:])) }

	for i, tc := range []struct {
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
		{ckptActiveFile, activeHuge},
		{ckptActiveFile, moveRecord},
		{ckptActiveFile, insertAfterFirst(false)},
		{ckptActiveFile, insertAfterFirst(true)},
		{ckptActiveFile, trailing},
	} {
		// Re-stamped damage passes the segment's CRC check, so the
		// payload's own reader must catch it.
		ckpttest.Edit(t, ckdir, tc.name, true, tc.defect)

		n2, feeds2 := tinyWorld(t)
		s2, err := Resume(ckdir, ckptTinyCfg(ckdir), n2, feeds2, nil)
		if !errors.Is(err, ckpt.ErrCorrupt) {
			if s2 != nil {
				s2.Close()
			}
			t.Errorf("case %d, %s: resume from a malformed table: err = %v, want ErrCorrupt", i, tc.name, err)
		}

		restore()
	}

	// The restored checkpoint loads: the damage, not the fixture, failed.
	n3, feeds3 := tinyWorld(t)
	s3, err := Resume(ckdir, ckptTinyCfg(ckdir), n3, feeds3, nil)
	if err != nil {
		t.Fatalf("resume from the undamaged checkpoint: %v", err)
	}
	s3.Close()
}

// TestResumeRefusesMalformedSets: a .hl6 set payload whose shard runs
// writeAddrSet cannot have written — an address counted under the
// previous shard, two addresses of a shard swapped, an address listed
// twice — fails Resume with ckpt.ErrCorrupt, for a resident and for a
// spilling service. Re-stamped damage passes the segment's CRC check and
// the .hl6 header check, so only loadAddrSet's own walk can catch it.
func TestResumeRefusesMalformedSets(t *testing.T) {
	scratch := t.TempDir()
	ckdir := filepath.Join(scratch, "ckpt")
	n, feeds := tinyWorld(t)
	cfg := ckptTinyCfg(ckdir)
	cfg.CheckpointFullEvery = 1 // the head carries every shard
	s := NewService(cfg, n, feeds, nil)
	runDays(t, s, weekly(0, 196))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	restore := ckpttest.Save(t, ckdir)

	// .hl6: a 16-byte prologue, a uint64 count per shard, then the
	// shards' 16-byte addresses.
	const body = 16 + 8*ip6.AddrShards
	count := func(b []byte, sh int) int { return int(binary.LittleEndian.Uint64(b[16+8*sh:])) }
	addCount := func(b []byte, sh, d int) {
		binary.LittleEndian.PutUint64(b[16+8*sh:], uint64(count(b, sh)+d))
	}
	// shardWith returns the first shard after shard 0 holding at least
	// least addresses, and the offset of its first address.
	shardWith := func(b []byte, least int) (int, int) {
		off := body
		for sh := 0; sh < ip6.AddrShards; sh++ {
			if sh > 0 && count(b, sh) >= least {
				return sh, off
			}
			off += count(b, sh) * ip6.AddrBytes
		}
		t.Fatalf("no shard after 0 holds %d addresses", least)
		return 0, 0
	}
	// moveAddr counts a shard's first address as the previous shard's
	// last, choosing a shard where that keeps the run ascending, so only
	// the shard check can object.
	moveAddr := func(b []byte) []byte {
		addr := func(off int) ip6.Addr { return ip6.AddrFrom16([ip6.AddrBytes]byte(b[off:])) }
		off := body + count(b, 0)*ip6.AddrBytes
		for sh := 1; sh < ip6.AddrShards; sh++ {
			if count(b, sh) > 0 && (count(b, sh-1) == 0 || addr(off-ip6.AddrBytes).Less(addr(off))) {
				addCount(b, sh-1, 1)
				addCount(b, sh, -1)
				return b
			}
			off += count(b, sh) * ip6.AddrBytes
		}
		t.Fatal("no address to move")
		return nil
	}
	swapAddrs := func(b []byte) []byte {
		_, off := shardWith(b, 2)
		x, y := b[off:off+ip6.AddrBytes], b[off+ip6.AddrBytes:off+2*ip6.AddrBytes]
		tmp := bytes.Clone(x)
		copy(x, y)
		copy(y, tmp)
		return b
	}
	dupAddr := func(b []byte) []byte {
		sh, off := shardWith(b, 1)
		addCount(b, sh, 1)
		end := off + ip6.AddrBytes
		return slices.Concat(b[:end], b[off:end], b[end:])
	}

	resident := ckptTinyCfg(ckdir)
	spilling := ckptTinyCfg(ckdir)
	spilling.MemoryBudget = spillBudget
	spilling.SpillDir = filepath.Join(scratch, "spill")
	if err := os.MkdirAll(spilling.SpillDir, 0o755); err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		label string
		cfg   Config
	}{{"resident", resident}, {"spill", spilling}}
	for _, tc := range []struct {
		label  string
		defect func([]byte) []byte
	}{
		{"moved address", moveAddr},
		{"swapped addresses", swapAddrs},
		{"duplicated address", dupAddr},
	} {
		ckpttest.Edit(t, ckdir, ckptInputSeenFile, true, tc.defect)
		for _, shape := range shapes {
			n2, feeds2 := tinyWorld(t)
			s2, err := Resume(ckdir, shape.cfg, n2, feeds2, nil)
			if !errors.Is(err, ckpt.ErrCorrupt) {
				if s2 != nil {
					s2.Close()
				}
				t.Errorf("%s, %s: resume: err = %v, want ErrCorrupt", tc.label, shape.label, err)
			}
		}
		restore()
	}

	// The restored checkpoint loads in both shapes: the damage, not the
	// fixture, failed.
	for _, shape := range shapes {
		n3, feeds3 := tinyWorld(t)
		s3, err := Resume(ckdir, shape.cfg, n3, feeds3, nil)
		if err != nil {
			t.Fatalf("%s: resume from the undamaged checkpoint: %v", shape.label, err)
		}
		s3.Close()
	}
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

// TestResumeRefusesCorruptCheckpoint: a bit-flip in any payload must
// make Resume refuse loudly with ckpt.ErrCorrupt — never half-load.
func TestResumeRefusesCorruptCheckpoint(t *testing.T) {
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	n, feeds := tinyWorld(t)
	s := NewService(ckptTinyCfg(ckdir), n, feeds, nil)
	runDays(t, s, weekly(0, 28))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ckpttest.Edit(t, ckdir, ckptActiveFile, false, flipMiddle)

	n2, feeds2 := tinyWorld(t)
	_, err := Resume(ckdir, ckptTinyCfg(ckdir), n2, feeds2, nil)
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("resume from bit-flipped checkpoint: err = %v, want ErrCorrupt", err)
	}
}

// flipMiddle flips one bit in the middle of a payload.
func flipMiddle(b []byte) []byte {
	b[len(b)/2] ^= 0x40
	return b
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
