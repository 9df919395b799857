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
	"hitlist6/internal/netmodel"
	"hitlist6/internal/sources"
)

// ckptTinyCfg is the reference-scenario config with durability on: a
// checkpoint after every scan.
func ckptTinyCfg(ckdir string) Config {
	cfg := DefaultConfig(1)
	cfg.GFWFilterFromDay = 150
	cfg.SnapshotDays = []int{14, 70, 180}
	cfg.CheckpointDir = ckdir
	cfg.CheckpointEvery = 1
	return cfg
}

// TestDurableRunMatchesReference pins that merely turning durability
// on — a checkpoint after every one of the 29 scans — leaves records
// and snapshots bit-identical to the pre-durability goldens.
func TestDurableRunMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n, feeds := tinyWorld(t)
		cfg := ckptTinyCfg(filepath.Join(t.TempDir(), "ckpt"))
		cfg.ScanWorkers = workers
		s := NewService(cfg, n, feeds, nil)
		runDays(t, s, weekly(0, 196))
		compareGolden(t, "reference_tiny.json", goldenFrom(s.Records(), s.Snapshots()),
			fmt.Sprintf("durable workers=%d", workers))
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
// just the outputs, to the timeline: the APD history and the pending /64
// queue are written in first-seen order without sorting, so that order
// must be the same for every execution shape. On a generated world with
// a checkpoint after every scan, the final unsharded payloads are
// byte-equal across worker counts, a spill budget, and an interrupt
// after scan 5 followed by Resume. A full checkpoint of the final state
// into a fresh directory — every set written from its shards in order —
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
	payloads := []string{ckptAPDFile, ckptPending64File, ckptActiveFile, ckptStateFile}
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
			if fi.Append {
				t.Fatalf("%s: %s is an append payload in a fresh directory", label, fi.Name)
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
	// 4-byte count plus 17-byte prefixes: the history must hold enough
	// rows for their order to matter.
	if len(base[ckptAPDFile]) < 4+100*17 {
		t.Fatalf("%s is only %d bytes: the scenario exercises too little", ckptAPDFile, len(base[ckptAPDFile]))
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
// file's name, size, CRC-64, item count and Append flag, in file order —
// together with the chain parent and depth. Cursor fields (scan index,
// last day, generation) are left out: the records goldens pin those. The
// space before each line's end is where format 2 printed a delta
// bitmap, empty for a full payload, so a full manifest hashes as it did
// then.
func manifestDigest(m ckpt.Manifest) string {
	h := sha256.New()
	for _, fi := range m.Files {
		fmt.Fprintf(h, "%s %d %s %d %t \n", fi.Name, fi.Bytes, fi.CRC, fi.Count, fi.Append)
	}
	fmt.Fprintf(h, "parent %q depth %d\n", m.Parent, m.Depth)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCheckpointManifestsMatchGolden pins the bytes Checkpoint writes,
// not just the outputs a resume reproduces: after every scan of the
// durable reference timeline the head manifest's digest matches
// testdata/ckpt_manifests_tiny.json, resident and with a spill budget,
// at Workers 1 and 4 — one golden for all four shapes. Payload order,
// sizes, CRCs and Append flags are all in the digest. Regenerate with
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

// appendChainFixture runs the durable reference timeline for k scans
// with compaction disabled, so the head is a delta whose append-only
// payloads sit on a full base k-1 levels down, and returns the head's
// directory and the base's.
func appendChainFixture(t *testing.T, k int) (ckdir, base string) {
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
	return ckdir, ckdir + ".p1"
}

// markAppend marks payload name of the checkpoint at dir Append in its
// manifest.
func markAppend(t *testing.T, dir, name string) {
	t.Helper()
	m, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(m.Files, func(fi ckpt.FileInfo) bool { return fi.Name == name })
	m.Files[i].Append = true
	ckpttest.WriteManifest(t, dir, m)
}

// TestResumeRefusesMalformedTables: the binary tables fail closed on
// damage that passes the CRC check — a header count the file cannot
// hold, a prefix length above 128, a prefix listed twice; in active.bin
// a record counted under the wrong shard, a shard out of order, bytes
// past the last record — with ckpt.ErrCorrupt from Resume, never a
// panic, a huge allocation or a store the next scan trips over. On a
// delta head the same holds for what the tables append: an APD row index
// that skips ahead, repeats or names a different prefix than the base's
// row, an append level with no full base under it, a full base without
// one of the address sets, and an Append flag on a table that is only
// ever written full. A format-3 manifest, which carried a table of seen
// /64s, is refused whole.
func TestResumeRefusesMalformedTables(t *testing.T) {
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	n, feeds := tinyWorld(t)
	cfg := ckptTinyCfg(ckdir)
	cfg.CheckpointFullEvery = 1 // the head holds every table in full
	s := NewService(cfg, n, feeds, nil)
	runDays(t, s, weekly(0, 28))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	restore := ckpttest.Save(t, ckdir)
	if b := ckpttest.Payload(t, ckdir, ckptAPDFile); binary.LittleEndian.Uint32(b) == 0 {
		t.Fatalf("%s: empty: nothing to damage", ckptAPDFile)
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

	// Append levels: a delta head over a full base four levels down.
	head, base := appendChainFixture(t, 5)
	restoreHead, restoreBase := ckpttest.Save(t, head), ckpttest.Save(t, base)
	const rowRec = 4 + rec // an append APD row leads with its index
	if b := ckpttest.Payload(t, head, ckptAPDFile); binary.LittleEndian.Uint32(b) < 2 || binary.LittleEndian.Uint32(b[4:]) != 0 {
		t.Fatal("head's APD history does not re-record the base's row 0 and another: nothing to damage")
	}
	skipRow := func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 1<<20); return b }
	otherPrefix := func(b []byte) []byte { b[8] ^= 0x80; return b } // row 0 now names another /k
	appendRowEntry := func(b []byte) int { return rowRec + 2 + 2*int(binary.LittleEndian.Uint16(b[4+rowRec:])) }
	// unchanged is an address set the head leaves out: it added nothing.
	headM, err := ckpt.ReadManifest(head)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := ""
	probe := NewService(ckptTinyCfg(head), n, feeds, nil)
	defer probe.Close()
	for _, pl := range probe.payloads() {
		if pl.set != nil && !slices.ContainsFunc(headM.Files, func(fi ckpt.FileInfo) bool { return fi.Name == pl.name }) {
			unchanged = pl.name
		}
	}
	if unchanged == "" {
		t.Fatal("the head writes every address set: no level leaves one out")
	}
	version := func(dir string, v int) {
		m, err := ckpt.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		m.Version = v
		ckpttest.WriteManifest(t, dir, m)
	}
	for i, tc := range []struct {
		label  string
		damage func()
	}{
		{"APD row skips ahead", func() { ckpttest.Edit(t, head, ckptAPDFile, true, skipRow) }},
		{"APD row repeats", func() { ckpttest.Edit(t, head, ckptAPDFile, true, dupFirst(appendRowEntry)) }},
		{"APD row names another prefix", func() { ckpttest.Edit(t, head, ckptAPDFile, true, otherPrefix) }},
		{"no full base", func() { markAppend(t, base, ckptAPDFile) }},
		{"full base without a set", func() { ckpttest.Drop(t, base, unchanged) }},
		{"previous format head", func() { version(head, ckpt.Version-1) }},
		{"previous format base", func() { version(base, ckpt.Version-1) }},
		{"full-only table appends", func() { markAppend(t, head, ckptActiveFile) }},
	} {
		tc.damage()
		n2, feeds2 := tinyWorld(t)
		cfg := ckptTinyCfg(head)
		cfg.CheckpointFullEvery = 1 << 20
		s2, err := Resume(head, cfg, n2, feeds2, nil)
		if !errors.Is(err, ckpt.ErrCorrupt) {
			if s2 != nil {
				s2.Close()
			}
			t.Errorf("append case %d, %s: resume: err = %v, want ErrCorrupt", i, tc.label, err)
		}
		restoreHead()
		restoreBase()
	}
	n4, feeds4 := tinyWorld(t)
	s4, err := Resume(head, ckptTinyCfg(head), n4, feeds4, nil)
	if err != nil {
		t.Fatalf("resume from the undamaged delta head: %v", err)
	}
	s4.Close()
}

// TestResumeRefusesMalformedSets: a .hl6 set payload whose shard runs
// the checkpoint writer cannot have written — an address counted under
// the previous shard, two addresses of a shard swapped, an address
// listed twice, an append run repeating an address its base holds,
// append levels with no full base under them, an append level of a
// responder column — fails Resume with ckpt.ErrCorrupt, for a resident
// and for a spilling service, in a cumulative set (inputseen) and in the
// last scan's responder columns (prevresp, lastclean). Re-stamped damage
// passes the segment's CRC check and the .hl6 header check, so only the
// readers' own walks can catch it.
func TestResumeRefusesMalformedSets(t *testing.T) {
	scratch := t.TempDir()
	ckdir := filepath.Join(scratch, "ckpt")
	// The tiny world plus enough ICMP hosts that the responder columns
	// hold shards of two and more addresses to damage.
	world := func() (*netmodel.Network, []*sources.Feed) {
		n, feeds := tinyWorld(t)
		var extra []ip6.Addr
		for i := uint64(1); i <= 48; i++ {
			a := ip6.MustParsePrefix("2001:100:1::/64").NthAddr(i)
			n.AddHost(&netmodel.Host{Addr: a, Protos: netmodel.ProtoSetOf(netmodel.ICMP),
				BornDay: 0, DeathDay: netmodel.Forever, UptimePermille: 1000, MTU: 1500})
			extra = append(extra, a)
		}
		return n, append(feeds, sources.Recurring("extra", 0, netmodel.Forever, func(int) []ip6.Addr { return extra }))
	}
	n, feeds := world()
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
	// editSnapshot applies edit to the last captured snapshot's ICMP
	// list, or with anyProto its any-protocol list, in snapshots.json.
	editSnapshot := func(anyProto bool, edit func([]string) []string) func([]byte) []byte {
		return func(b []byte) []byte {
			var snaps map[int]ckptSnapshot
			if err := json.Unmarshal(b, &snaps); err != nil {
				t.Fatal(err)
			}
			day := -1
			for d := range snaps {
				day = max(day, d)
			}
			cs := snaps[day]
			list := cs.Responsive[netmodel.ICMP]
			if anyProto {
				list = cs.Any
			}
			if len(list) < 2 {
				t.Fatalf("snapshot of day %d holds %d addresses: nothing to damage", day, len(list))
			}
			if list = edit(list); anyProto {
				cs.Any = list
			} else {
				cs.Responsive[netmodel.ICMP] = list
			}
			snaps[day] = cs
			out, err := json.Marshal(snaps)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
	}
	swapSnapshotAddrs := editSnapshot(false, func(l []string) []string {
		l[0], l[1] = l[1], l[0]
		return l
	})
	dupSnapshotAddr := editSnapshot(true, func(l []string) []string { return slices.Insert(l, 1, l[0]) })

	type defect struct {
		name, label string
		edit        func([]byte) []byte
	}
	var defects []defect
	for _, name := range []string{ckptInputSeenFile, ckptPrevRespFile, ckptLastCleanFile(int(netmodel.ICMP))} {
		defects = append(defects,
			defect{name, "moved address", moveAddr},
			defect{name, "swapped addresses", swapAddrs},
			defect{name, "duplicated address", dupAddr})
	}
	defects = append(defects,
		defect{ckptSnapshotsFile, "swapped snapshot addresses", swapSnapshotAddrs},
		defect{ckptSnapshotsFile, "duplicated snapshot address", dupSnapshotAddr})
	for _, tc := range defects {
		ckpttest.Edit(t, ckdir, tc.name, true, tc.edit)
		for _, shape := range shapes {
			n2, feeds2 := world()
			s2, err := Resume(ckdir, shape.cfg, n2, feeds2, nil)
			if !errors.Is(err, ckpt.ErrCorrupt) {
				if s2 != nil {
					s2.Close()
				}
				t.Errorf("%s, %s, %s: resume: err = %v, want ErrCorrupt", tc.name, tc.label, shape.label, err)
			}
		}
		restore()
	}

	// The restored checkpoint loads in both shapes: the damage, not the
	// fixture, failed.
	for _, shape := range shapes {
		n3, feeds3 := world()
		s3, err := Resume(ckdir, shape.cfg, n3, feeds3, nil)
		if err != nil {
			t.Fatalf("%s: resume from the undamaged checkpoint: %v", shape.label, err)
		}
		s3.Close()
	}

	// Append levels: a delta head over a full base nine levels down, at
	// the scan (day 63) whose new input gives the head something to
	// append to inputseen.hl6.
	head, base := appendChainFixture(t, 10)
	restoreHead, restoreBase := ckpttest.Save(t, head), ckpttest.Save(t, base)
	if m, err := ckpt.ReadManifest(head); err != nil || !slices.ContainsFunc(m.Files, func(fi ckpt.FileInfo) bool {
		return fi.Name == ckptInputSeenFile && fi.Append
	}) {
		t.Fatalf("head does not append %s (%v): nothing to damage", ckptInputSeenFile, err)
	}
	baseImg := ckpttest.Payload(t, base, ckptInputSeenFile)
	// repeatBase files the base's first address of some shard into the
	// head's run of that shard, in order, so only the merged count can
	// object.
	repeatBase := func(b []byte) []byte {
		off, baseOff := body, body
		for sh := 0; sh < ip6.AddrShards; sh++ {
			if count(baseImg, sh) > 0 {
				a := ip6.AddrFrom16([ip6.AddrBytes]byte(baseImg[baseOff:]))
				at := off
				for i := 0; i < count(b, sh) && ip6.AddrFrom16([ip6.AddrBytes]byte(b[at:])).Less(a); i++ {
					at += ip6.AddrBytes
				}
				addCount(b, sh, 1)
				return slices.Concat(b[:at], a[:], b[at:])
			}
			off += count(b, sh) * ip6.AddrBytes
			baseOff += count(baseImg, sh) * ip6.AddrBytes
		}
		t.Fatal("base holds no address")
		return nil
	}
	for _, tc := range []struct {
		label  string
		damage func()
	}{
		{"append repeats a base address", func() { ckpttest.Edit(t, head, ckptInputSeenFile, true, repeatBase) }},
		{"no full base", func() { markAppend(t, base, ckptInputSeenFile) }},
		{"responder column appends", func() { markAppend(t, head, ckptPrevRespFile) }},
	} {
		for _, shape := range shapes {
			tc.damage()
			cfg := shape.cfg
			cfg.CheckpointDir = head
			n2, feeds2 := tinyWorld(t)
			s2, err := Resume(head, cfg, n2, feeds2, nil)
			if !errors.Is(err, ckpt.ErrCorrupt) {
				if s2 != nil {
					s2.Close()
				}
				t.Errorf("%s, %s: resume: err = %v, want ErrCorrupt", tc.label, shape.label, err)
			}
			restoreHead()
			restoreBase()
		}
	}
	for _, shape := range shapes {
		cfg := shape.cfg
		cfg.CheckpointDir = head
		n3, feeds3 := tinyWorld(t)
		s3, err := Resume(head, cfg, n3, feeds3, nil)
		if err != nil {
			t.Fatalf("%s: resume from the undamaged delta head: %v", shape.label, err)
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
