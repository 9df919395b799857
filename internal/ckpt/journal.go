package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"hitlist6/internal/ip6"
)

// The ingest journal is the rollback buffer of chunked admission: one
// scan's candidate stream — every (feed, address) pair, in the
// deterministic feed-name-sorted sequence — spooled to disk before any
// admission runs. The admitting side then replays it in bounded chunks,
// so a hitlist-scale import is never scan-input-sized resident, while a
// source error simply discards the journal with nothing admitted (the
// same all-or-nothing contract the resident paths keep by collecting
// first). The journal is transient within one scan: a journal file found
// at restore time is debris from a crash mid-scan and is discarded —
// recovery restarts that scan from the last finalized checkpoint.
//
// Layout: 4-byte magic "HL6J", then 20-byte records of uint32
// little-endian feed index + 16 raw address bytes.

// journalMagic identifies ingest journal files.
var journalMagic = [4]byte{'H', 'L', '6', 'J'}

// journalRecBytes is the on-disk size of one journal record.
const journalRecBytes = 4 + ip6.AddrBytes

// JournalWriter spools one scan's candidate sequence.
type JournalWriter struct {
	path  string
	f     *os.File
	bw    *bufio.Writer
	count int64
}

// CreateJournal creates (truncating) the journal file at path.
func CreateJournal(path string) (*JournalWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: creating journal: %w", err)
	}
	bw := bufio.NewWriterSize(f, 64*1024)
	if _, err := bw.Write(journalMagic[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("ckpt: writing journal: %w", err)
	}
	return &JournalWriter{path: path, f: f, bw: bw}, nil
}

// Add appends one candidate record.
func (j *JournalWriter) Add(feed int32, a ip6.Addr) error {
	var rec [journalRecBytes]byte
	binary.LittleEndian.PutUint32(rec[:], uint32(feed))
	copy(rec[4:], a[:])
	if _, err := j.bw.Write(rec[:]); err != nil {
		return fmt.Errorf("ckpt: writing journal: %w", err)
	}
	j.count++
	return nil
}

// Count returns the records appended so far.
func (j *JournalWriter) Count() int64 { return j.count }

// Finish flushes and closes the journal, leaving the file in place for
// replay. No fsync: the journal's job is rollback within one process
// lifetime, not crash durability — after a crash the whole scan replays
// from the previous checkpoint and any journal found is discarded.
func (j *JournalWriter) Finish() error {
	if err := j.bw.Flush(); err != nil {
		j.f.Close()
		return fmt.Errorf("ckpt: flushing journal: %w", err)
	}
	return j.f.Close()
}

// Discard closes and removes the journal — the abort path.
func (j *JournalWriter) Discard() {
	j.f.Close()
	os.Remove(j.path)
}

// JournalReader replays a journal in write order.
type JournalReader struct {
	path  string
	f     *os.File
	br    *bufio.Reader
	feeds int
}

// OpenJournal opens the journal at path for replay. feeds is the number
// of sources the journal was spooled from: a record naming a feed outside
// [0, feeds) is corrupt.
func OpenJournal(path string, feeds int) (*JournalReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 64*1024)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil || m != journalMagic {
		f.Close()
		return nil, fmt.Errorf("%w: journal %s: bad magic", ErrCorrupt, path)
	}
	return &JournalReader{path: path, f: f, br: br, feeds: feeds}, nil
}

// Next returns the next record; ok=false at end of journal. A torn
// trailing record or a feed index out of range fails closed with
// ErrCorrupt.
func (j *JournalReader) Next() (feed int32, a ip6.Addr, ok bool, err error) {
	var rec [journalRecBytes]byte
	switch _, rerr := io.ReadFull(j.br, rec[:]); {
	case rerr == io.EOF:
		return 0, ip6.Addr{}, false, nil
	case rerr == io.ErrUnexpectedEOF:
		return 0, ip6.Addr{}, false, fmt.Errorf("%w: journal %s: torn trailing record", ErrCorrupt, j.path)
	case rerr != nil:
		return 0, ip6.Addr{}, false, fmt.Errorf("ckpt: reading journal: %w", rerr)
	}
	idx := binary.LittleEndian.Uint32(rec[:])
	if int64(idx) >= int64(j.feeds) {
		return 0, ip6.Addr{}, false, fmt.Errorf("%w: journal %s: feed %d of %d", ErrCorrupt, j.path, idx, j.feeds)
	}
	copy(a[:], rec[4:])
	return int32(idx), a, true, nil
}

// Close closes the reader (the file stays; the replaying owner removes
// it after a successful replay).
func (j *JournalReader) Close() error { return j.f.Close() }

// Remove deletes the journal file.
func (j *JournalReader) Remove() error { return os.Remove(j.path) }

// JournalStat reports a journal file's record count from its size — the
// status line `hl6 info` prints for a checkpoint directory. Missing file
// returns ok=false with a nil error.
func JournalStat(path string) (count int64, bytes int64, ok bool, err error) {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, err
	}
	n := st.Size() - int64(len(journalMagic))
	if n < 0 {
		n = 0
	}
	return n / journalRecBytes, st.Size(), true, nil
}
