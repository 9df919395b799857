// Package ckpt implements crash-consistent checkpoint directories: a set
// of named payloads stored back to back in one segment file plus a
// manifest recording each payload's offset, size and CRC, committed
// atomically so that a reader always finds either a complete previous
// checkpoint or a complete new one — never a partial mix, no matter
// where a crash lands.
//
// A committed checkpoint directory holds exactly two files:
//
//	payloads.seg   every payload's bytes, in manifest order, no framing
//	manifest.json  version, cursor fields, and per payload its name,
//	               offset, byte size, CRC-64 and (for appends) an Append flag
//
// Write protocol (Begin → Create/Close per payload → Commit):
//
//  1. every payload is appended to payloads.seg in a fresh temp directory
//     next to the destination; Commit fsyncs the segment once;
//  2. the manifest — naming every payload with its offset, byte size and
//     CRC-64 — is written and fsynced last, so a temp directory holding a
//     manifest holds everything the manifest promises;
//  3. Commit renames the previous checkpoint (if any) to dest+".prev",
//     renames the temp directory to dest, and removes the ".prev" copy.
//
// The only crash windows are therefore: no manifest in the temp dir
// (garbage, ignored), dest missing but dest+".prev" complete (Resolve
// falls back to it), or both present (dest is newer and wins). Open
// re-verifies the whole segment against the manifest before handing
// anything to the caller: the entries must tile it exactly — the first
// at offset 0, each next one where the previous ends, the last ending
// at the segment's size — and every section's CRC must match. A gap, an
// overlap, trailing bytes, a bit flip or a missing segment refuses
// loudly with ErrCorrupt rather than half-loading.
//
// # Delta chains
//
// A checkpoint may be written as a delta against the checkpoint
// currently at dest (BeginDelta): the manifest's Parent field names the
// sibling directory — dest + ".p<scanIndex>" — the superseded head is
// parked under at commit time instead of being removed. A delta level
// writes each payload either in full, exactly as a full checkpoint
// would, or marked Append: then it holds only what was added since the
// parent, and its current content is the newest level holding it in
// full plus every Append level above that, oldest first. The payload
// owner decides per payload; this package only resolves the levels.
// OpenChain resolves the whole parent chain (every level fully
// CRC-verified; a missing or damaged parent is ErrCorrupt), and Levels
// returns the levels one payload resolves through — ErrCorrupt when a
// level lacks it or no full copy lies under its Append levels. A
// manifest without a parent that marks a payload Append is refused on
// read. The delta commit's crash windows mirror the full commit's:
// before the park rename the old chain is intact at dest; between the
// park and publish renames Resolve falls back to the highest-numbered
// parked parent; after publish the new head is live. A full (non-delta)
// commit into dest collapses the chain: its .p* parents are removed
// once the new head is durable.
package ckpt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// ManifestName is the manifest's file name inside a checkpoint directory.
const ManifestName = "manifest.json"

// SegmentName is the file inside a checkpoint directory that holds every
// payload's bytes, back to back in manifest order.
const SegmentName = "payloads.seg"

// Version is the current checkpoint format version. Version 1 stored
// every payload as a file of its own, version 2 marked delta payloads
// with a shard bitmap, version 3 carried a table of the /64s alias
// detection had seen, version 4 carried two GFW-tracker sets that
// copied the responsive history, and version 5 carried the deployed GFW
// filter list, which the input dedup set already covers; the service now
// derives or drops all three, and their manifests are refused like any
// other version skew.
const Version = 6

// ErrCorrupt tags every validation failure Open returns (wrapped with
// detail); errors.Is(err, ErrCorrupt) distinguishes a damaged checkpoint
// from plain I/O errors.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// crcTable is the CRC-64/ECMA table every payload checksum uses.
var crcTable = crc64.MakeTable(crc64.ECMA)

// segBufSize is the write buffer in front of the segment and the read
// buffer Open verifies it with.
const segBufSize = 64 << 10

// FileInfo describes one payload in the manifest: its section of the
// segment and the checksum of those bytes.
type FileInfo struct {
	Name   string `json:"name"`
	Offset int64  `json:"offset"` // start of the payload's bytes in the segment
	Bytes  int64  `json:"bytes"`
	CRC    string `json:"crc64"` // 16 hex digits, CRC-64/ECMA of the payload
	Count  int64  `json:"count,omitempty"`

	// Append marks a payload that holds only what was added since the
	// parent level; the rest of its content lives at older levels (see
	// Snapshot.Levels). A payload without it is complete on its own.
	Append bool `json:"append,omitempty"`
}

// Manifest is the checkpoint's table of contents plus the service-level
// cursor fields the owner stamps at Commit (displayed by `hl6 info`).
type Manifest struct {
	Version    int        `json:"version"`
	ScanIndex  int        `json:"scan_index"`
	LastDay    int        `json:"last_day"`
	Generation uint64     `json:"generation"`
	Files      []FileInfo `json:"files"`

	// Parent names the sibling directory holding the checkpoint this one
	// is a delta against ("" for a full checkpoint); Depth is the chain
	// length above the full base (0 for full).
	Parent string `json:"parent,omitempty"`
	Depth  int    `json:"depth,omitempty"`
}

// Writer stages one checkpoint. Payloads must be created and closed one
// at a time, each appended to the staged segment; Commit finalizes,
// Abort discards.
type Writer struct {
	dest  string
	tmp   string
	seg   *os.File
	bw    *bufio.Writer
	off   int64 // segment bytes written so far
	cur   *File // the payload being written; nil between payloads
	files []FileInfo
	done  bool

	// Delta staging (BeginDelta): the sibling name the current head will
	// be parked under at commit, and its chain depth.
	parentName  string
	parentDepth int
}

// Begin stages a checkpoint targeting the directory dest. The temp
// staging directory is created next to dest (same filesystem, so the
// commit renames are atomic).
func Begin(dest string) (*Writer, error) {
	parent := filepath.Dir(dest)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating checkpoint parent: %w", err)
	}
	tmp, err := os.MkdirTemp(parent, filepath.Base(dest)+".tmp-")
	if err != nil {
		return nil, fmt.Errorf("ckpt: creating staging dir: %w", err)
	}
	seg, err := os.Create(filepath.Join(tmp, SegmentName))
	if err != nil {
		os.RemoveAll(tmp)
		return nil, fmt.Errorf("ckpt: creating segment: %w", err)
	}
	return &Writer{dest: dest, tmp: tmp, seg: seg, bw: bufio.NewWriterSize(seg, segBufSize)}, nil
}

// BeginDelta stages a checkpoint that chains onto the checkpoint
// currently at dest: Commit parks the current head under a stable
// sibling name (dest + ".p<scanIndex>") instead of removing it, and the
// new manifest records that name as its parent. dest must hold a
// readable manifest — callers fall back to Begin (a full rewrite) when
// it does not.
func BeginDelta(dest string) (*Writer, error) {
	pm, err := ReadManifest(dest)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading delta parent manifest: %w", err)
	}
	w, err := Begin(dest)
	if err != nil {
		return nil, err
	}
	w.parentName = fmt.Sprintf("%s.p%d", filepath.Base(dest), pm.ScanIndex)
	w.parentDepth = pm.Depth
	return w, nil
}

// File is one payload being written: an io.Writer that appends to the
// segment, tracks size and CRC, and records its manifest entry on Close.
type File struct {
	w      *Writer
	name   string
	off    int64
	crc    hash.Hash64
	n      int64
	count  int64
	append bool
}

// Create starts payload name at the segment's current end. Close the
// returned File before creating the next one: a second Create while one
// is open is refused, since interleaved writes would corrupt both.
func (w *Writer) Create(name string) (*File, error) {
	if w.done {
		return nil, fmt.Errorf("ckpt: writer already finished")
	}
	if name == ManifestName || name != filepath.Base(name) {
		return nil, fmt.Errorf("ckpt: invalid payload name %q", name)
	}
	if w.cur != nil {
		return nil, fmt.Errorf("ckpt: creating %s while %s is still open", name, w.cur.name)
	}
	for _, fi := range w.files {
		if fi.Name == name {
			return nil, fmt.Errorf("ckpt: payload %s written twice", name)
		}
	}
	w.cur = &File{w: w, name: name, off: w.off, crc: crc64.New(crcTable)}
	return w.cur, nil
}

// Write appends to the payload, folding the bytes into the running CRC.
func (f *File) Write(p []byte) (int, error) {
	if f.w.cur != f {
		return 0, fmt.Errorf("ckpt: write to closed payload %s", f.name)
	}
	n, err := f.w.bw.Write(p)
	f.crc.Write(p[:n])
	f.n += int64(n)
	f.w.off += int64(n)
	return n, err
}

// SetCount records an item count (addresses, records) in the payload's
// manifest entry — display metadata only, not validated.
func (f *File) SetCount(n int64) { f.count = n }

// SetAppend marks the payload as holding only what was added since the
// parent level. Unlike Count this is load-bearing: readers resolve the
// rest through the parent chain (Snapshot.Levels).
func (f *File) SetAppend() { f.append = true }

// Close records the payload's manifest entry. Nothing is synced here:
// Commit fsyncs the whole segment once.
func (f *File) Close() error {
	if f.w.cur != f {
		return fmt.Errorf("ckpt: payload %s already closed", f.name)
	}
	f.w.cur = nil
	f.w.files = append(f.w.files, FileInfo{
		Name:   f.name,
		Offset: f.off,
		Bytes:  f.n,
		CRC:    fmt.Sprintf("%016x", f.crc.Sum64()),
		Count:  f.count,
		Append: f.append,
	})
	return nil
}

// Abort discards the staged checkpoint. No-op after Commit or a prior
// Abort.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	if w.seg != nil {
		w.seg.Close()
		w.seg = nil
	}
	os.RemoveAll(w.tmp)
}

// finishSegment flushes, fsyncs and closes the staged segment: the one
// data fsync of a commit.
func (w *Writer) finishSegment() error {
	err := w.bw.Flush()
	if err == nil {
		err = w.seg.Sync()
	}
	if cerr := w.seg.Close(); err == nil {
		err = cerr
	}
	w.seg = nil
	if err != nil {
		return fmt.Errorf("ckpt: writing segment: %w", err)
	}
	return nil
}

// Commit makes the segment durable, writes the manifest (stamped with
// the writer's payload table) and atomically replaces dest with the
// staged directory. On error the staging directory is removed and dest
// is untouched — except in the narrow window between the two renames,
// which Resolve covers via the ".prev" fallback.
func (w *Writer) Commit(m Manifest) error {
	if w.done {
		return fmt.Errorf("ckpt: writer already finished")
	}
	if w.cur != nil {
		name := w.cur.name
		w.Abort()
		return fmt.Errorf("ckpt: committing with payload %s still open", name)
	}
	if err := w.finishSegment(); err != nil {
		w.Abort()
		return err
	}
	m.Version = Version
	m.Files = w.files
	if w.parentName != "" {
		m.Parent = w.parentName
		m.Depth = w.parentDepth + 1
	}
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		w.Abort()
		return fmt.Errorf("ckpt: encoding manifest: %w", err)
	}
	data = append(data, '\n')
	if err := writeFileSync(filepath.Join(w.tmp, ManifestName), data); err != nil {
		w.Abort()
		return err
	}
	// Make the staged directory's entries durable before it becomes
	// reachable under the destination name.
	syncDir(w.tmp)

	if w.parentName != "" {
		return w.commitDelta()
	}

	prev := w.dest + ".prev"
	// A stale .prev can only be debris from an earlier crash inside this
	// window; the live checkpoint at dest supersedes it.
	if err := os.RemoveAll(prev); err != nil {
		w.Abort()
		return fmt.Errorf("ckpt: clearing stale %s: %w", prev, err)
	}
	if _, err := os.Stat(w.dest); err == nil {
		if err := os.Rename(w.dest, prev); err != nil {
			w.Abort()
			return fmt.Errorf("ckpt: parking previous checkpoint: %w", err)
		}
	} else if !os.IsNotExist(err) {
		w.Abort()
		return fmt.Errorf("ckpt: checking %s: %w", w.dest, err)
	}
	if err := os.Rename(w.tmp, w.dest); err != nil {
		// Put the previous checkpoint back so the destination name stays
		// valid; the staged copy is dropped.
		os.Rename(prev, w.dest)
		w.Abort()
		return fmt.Errorf("ckpt: publishing checkpoint: %w", err)
	}
	w.done = true
	syncDir(filepath.Dir(w.dest))
	if err := os.RemoveAll(prev); err != nil {
		return fmt.Errorf("ckpt: removing %s: %w", prev, err)
	}
	// A full checkpoint is self-contained: parked parents from a
	// superseded delta chain are debris once the new head is durable.
	return removeChain(w.dest)
}

// commitDelta publishes a delta checkpoint: the current head moves to
// its stable parent slot (the name the staged manifest already records),
// then the staged directory takes the head's place. A crash before the
// park leaves the old chain intact at dest; between the renames Resolve
// falls back to the highest-numbered parked parent; after them the new
// head is live.
func (w *Writer) commitDelta() error {
	park := filepath.Join(filepath.Dir(w.dest), w.parentName)
	if _, err := os.Stat(park); err == nil {
		w.Abort()
		return fmt.Errorf("ckpt: delta parent slot %s already occupied", park)
	} else if !os.IsNotExist(err) {
		w.Abort()
		return fmt.Errorf("ckpt: checking %s: %w", park, err)
	}
	if err := os.Rename(w.dest, park); err != nil {
		w.Abort()
		return fmt.Errorf("ckpt: parking delta parent: %w", err)
	}
	if err := os.Rename(w.tmp, w.dest); err != nil {
		// Put the parent back under the head name so dest stays valid.
		os.Rename(park, w.dest)
		w.Abort()
		return fmt.Errorf("ckpt: publishing delta checkpoint: %w", err)
	}
	w.done = true
	syncDir(filepath.Dir(w.dest))
	return nil
}

// chainDirs lists dest's parked delta parents — sibling directories
// named dest + ".p<digits>" — in ascending scan-index order. It lists
// the parent directory rather than globbing, so a dest containing glob
// metacharacters ("run[1]/ck") still finds its chain.
func chainDirs(dest string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Dir(dest))
	if err != nil {
		return nil, fmt.Errorf("ckpt: listing chain of %s: %w", dest, err)
	}
	prefix := filepath.Base(dest) + ".p"
	var dirs []string
	var scans []int
	for _, e := range entries {
		digits, ok := strings.CutPrefix(e.Name(), prefix)
		n, err := strconv.Atoi(digits)
		if !ok || err != nil {
			continue // ".prev", unrelated siblings
		}
		dirs = append(dirs, dest+".p"+digits)
		scans = append(scans, n)
	}
	// Insertion sort by scan index — chains are bounded-depth small.
	for i := 1; i < len(dirs); i++ {
		for j := i; j > 0 && scans[j] < scans[j-1]; j-- {
			scans[j], scans[j-1] = scans[j-1], scans[j]
			dirs[j], dirs[j-1] = dirs[j-1], dirs[j]
		}
	}
	return dirs, nil
}

// removeChain deletes dest's parked delta parents.
func removeChain(dest string) error {
	dirs, err := chainDirs(dest)
	if err != nil {
		return err
	}
	for _, d := range dirs {
		if err := os.RemoveAll(d); err != nil {
			return fmt.Errorf("ckpt: removing superseded chain dir %s: %w", d, err)
		}
	}
	return nil
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ckpt: creating %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: syncing %s: %w", path, err)
	}
	return f.Close()
}

// syncDir fsyncs a directory's entries, best-effort: not every
// filesystem supports it, and the rename protocol is still correct
// without it on those (the crash windows just widen to the page-cache
// flush).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Resolve picks the directory a restore should read: dir itself when it
// holds a manifest, else dir+".prev" (the crash window where a full
// Commit had parked the previous checkpoint but not yet published the
// new one), else the highest-scan-index parked delta parent dir+".p<N>"
// (the same window in a delta Commit). When none exists the error wraps
// os.ErrNotExist.
func Resolve(dir string) (string, error) {
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return dir, nil
	} else if !os.IsNotExist(err) {
		return "", fmt.Errorf("ckpt: probing %s: %w", dir, err)
	}
	prev := dir + ".prev"
	if _, err := os.Stat(filepath.Join(prev, ManifestName)); err == nil {
		return prev, nil
	} else if !os.IsNotExist(err) {
		return "", fmt.Errorf("ckpt: probing %s: %w", prev, err)
	}
	if chain, err := chainDirs(dir); err == nil {
		for i := len(chain) - 1; i >= 0; i-- {
			if _, err := os.Stat(filepath.Join(chain[i], ManifestName)); err == nil {
				return chain[i], nil
			}
		}
	}
	return "", fmt.Errorf("ckpt: no checkpoint at %s: %w", dir, os.ErrNotExist)
}

// Snapshot is an opened, fully validated checkpoint — one level of a
// (possibly single-level) delta chain. Parent is non-nil when this level
// was opened through OpenChain and is a delta.
type Snapshot struct {
	Dir      string
	Manifest Manifest
	Parent   *Snapshot

	byName map[string]FileInfo
}

// ReadManifest parses a checkpoint directory's manifest without reading
// the segment — the cheap path for status display. A manifest without a
// parent that marks a payload Append is ErrCorrupt: that payload has no
// full base to resolve against.
func ReadManifest(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.Version != Version {
		return m, fmt.Errorf("%w: manifest version %d, want %d", ErrCorrupt, m.Version, Version)
	}
	for _, fi := range m.Files {
		if fi.Append && m.Parent == "" {
			return m, fmt.Errorf("%w: %s is an append payload in a checkpoint without a parent", ErrCorrupt, fi.Name)
		}
	}
	return m, nil
}

// Open reads dir's manifest and verifies the segment against it — the
// entries tile the segment exactly and every section's CRC matches —
// before returning. Any mismatch returns an error wrapping ErrCorrupt;
// nothing is ever half-loaded.
func Open(dir string) (*Snapshot, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Dir: dir, Manifest: m, byName: make(map[string]FileInfo, len(m.Files))}
	for _, fi := range m.Files {
		if _, dup := s.byName[fi.Name]; dup {
			return nil, fmt.Errorf("%w: manifest lists %s twice", ErrCorrupt, fi.Name)
		}
		s.byName[fi.Name] = fi
	}
	if err := verifySegment(dir, m.Files); err != nil {
		return nil, err
	}
	return s, nil
}

// verifySegment reads dir's segment once, front to back: each entry
// must start where the previous one ended (the first at 0), the last
// must end at the segment's size, and each section's CRC must match.
func verifySegment(dir string, files []FileInfo) error {
	f, err := os.Open(filepath.Join(dir, SegmentName))
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %s missing", ErrCorrupt, SegmentName)
		}
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	buf := make([]byte, segBufSize)
	var end int64
	for _, fi := range files {
		if fi.Offset != end {
			return fmt.Errorf("%w: %s starts at offset %d, previous payload ends at %d", ErrCorrupt, fi.Name, fi.Offset, end)
		}
		if fi.Bytes < 0 || fi.Bytes > size-end {
			return fmt.Errorf("%w: %s claims %d bytes at offset %d of a %d-byte segment", ErrCorrupt, fi.Name, fi.Bytes, fi.Offset, size)
		}
		crc := crc64.New(crcTable)
		n, err := io.CopyBuffer(crc, io.LimitReader(f, fi.Bytes), buf)
		if err != nil {
			return fmt.Errorf("ckpt: reading %s: %w", fi.Name, err)
		}
		if n != fi.Bytes {
			return fmt.Errorf("%w: %s is %d bytes, manifest says %d", ErrCorrupt, fi.Name, n, fi.Bytes)
		}
		if got := fmt.Sprintf("%016x", crc.Sum64()); got != fi.CRC {
			return fmt.Errorf("%w: %s CRC %s, manifest says %s", ErrCorrupt, fi.Name, got, fi.CRC)
		}
		end += fi.Bytes
	}
	if end != size {
		return fmt.Errorf("%w: %s is %d bytes, payloads end at %d", ErrCorrupt, SegmentName, size, end)
	}
	return nil
}

// maxChainDepth guards OpenChain against parent-reference cycles and
// runaway chains; real chains are bounded by the writer's compaction
// cadence, orders of magnitude below this.
const maxChainDepth = 1 << 10

// OpenChain opens dir like Open, then resolves and fully verifies its
// delta-parent chain: every level's payloads are size- and CRC-checked,
// and a missing, unreadable or cyclic parent refuses with ErrCorrupt —
// a delta head whose history is damaged must not half-load.
func OpenChain(dir string) (*Snapshot, error) {
	head, err := Open(dir)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{filepath.Base(dir): true}
	for cur, depth := head, 0; cur.Manifest.Parent != ""; depth++ {
		if depth >= maxChainDepth {
			return nil, fmt.Errorf("%w: delta chain deeper than %d", ErrCorrupt, maxChainDepth)
		}
		name := cur.Manifest.Parent
		if name != filepath.Base(name) || seen[name] {
			return nil, fmt.Errorf("%w: invalid parent reference %q", ErrCorrupt, name)
		}
		seen[name] = true
		p, err := Open(filepath.Join(filepath.Dir(cur.Dir), name))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("%w: delta parent %s missing", ErrCorrupt, name)
			}
			return nil, err
		}
		cur.Parent = p
		cur = p
	}
	return head, nil
}

// Section is one payload's bytes within a checkpoint segment, readable
// sequentially or at offsets; Close releases the segment handle.
type Section struct {
	*io.SectionReader
	f *os.File
}

// Close closes the segment file the section reads from.
func (s *Section) Close() error { return s.f.Close() }

// Open returns payload name's section of the segment; a name the
// manifest does not list is ErrCorrupt. The caller closes the section.
func (s *Snapshot) Open(name string) (*Section, error) {
	fi, ok := s.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s missing from manifest", ErrCorrupt, name)
	}
	f, err := os.Open(filepath.Join(s.Dir, SegmentName))
	if err != nil {
		return nil, err
	}
	return &Section{SectionReader: io.NewSectionReader(f, fi.Offset, fi.Bytes), f: f}, nil
}

// Has reports whether the manifest names the payload.
func (s *Snapshot) Has(name string) bool {
	_, ok := s.byName[name]
	return ok
}

// Levels returns the chain levels payload name resolves through, oldest
// first: the newest level (this snapshot or an ancestor) holding it in
// full, then every Append level above that that holds it. A delta level
// without the payload holds no change to it and is left out. A full
// base without the payload, or Append levels with no full copy under
// them — the chain ends, or s was opened without OpenChain — is
// ErrCorrupt.
func (s *Snapshot) Levels(name string) ([]*Snapshot, error) {
	var out []*Snapshot
	for cur := s; cur != nil; cur = cur.Parent {
		fi, ok := cur.byName[name]
		switch {
		case ok:
			out = append(out, cur)
			if !fi.Append {
				slices.Reverse(out)
				return out, nil
			}
		case cur.Manifest.Parent == "":
			return nil, fmt.Errorf("%w: %s missing from %s", ErrCorrupt, name, cur.Dir)
		}
	}
	return nil, fmt.Errorf("%w: %s has no full copy under %s", ErrCorrupt, name, s.Dir)
}
