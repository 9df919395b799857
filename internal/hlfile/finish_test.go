package hlfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hitlist6/internal/ip6"
)

// TestFinishFailureKeepsPreviousFile: a Finish that fails part-way
// through the merge — here its scratch run file is closed under it —
// leaves whatever was at path untouched (or still nothing) and no
// temporary file beside it.
func TestFinishFailureKeepsPreviousFile(t *testing.T) {
	for _, prev := range [][]byte{[]byte("a previous hitlist"), nil} {
		dir := t.TempDir()
		path := filepath.Join(dir, "targets.hl6")
		if prev != nil {
			if err := os.WriteFile(path, prev, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, err := NewWriterBudget(path, 16)
		if err != nil {
			t.Fatal(err)
		}
		// Six budgets' worth: the last Add spills, so Finish has nothing
		// left to spill and fails only once it reads the runs back.
		for i := 0; i < 6*16; i++ {
			if err := w.Add(ip6.AddrFromUint64s(0x2001_0db8<<32, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		w.rf.Close()
		if err := w.Finish(); err == nil {
			t.Fatal("Finish succeeded with its scratch file closed")
		}
		got, err := os.ReadFile(path)
		switch {
		case prev == nil && !os.IsNotExist(err):
			t.Errorf("no previous file: after the failed Finish, read err = %v, want not-exist", err)
		case prev != nil && (err != nil || !bytes.Equal(got, prev)):
			t.Errorf("previous file changed by the failed Finish: %d bytes, err %v", len(got), err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := 0 // files the directory should hold: the previous one, if any
		if prev != nil {
			want = 1
		}
		if len(entries) != want {
			t.Errorf("%d files left in the output directory, want %d: %v", len(entries), want, entries)
		}
	}
}
