//go:build linux

package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestWriteAtomicReportsFailedWrite caps the process's file size so the
// temp file's write fails partway (EFBIG; Go ignores SIGXFSZ). The error
// must surface and the existing file must keep its old bytes — a torn
// temp file is never renamed over it.
func TestWriteAtomicReportsFailedWrite(t *testing.T) {
	dir := t.TempDir()
	old := []byte("3\n")
	if err := writeAtomic(dir, membersFile, old); err != nil {
		t.Fatal(err)
	}

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skip("getrlimit:", err)
	}
	capped := lim
	capped.Cur = 16
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &capped); err != nil {
		t.Skip("setrlimit:", err)
	}
	err := writeAtomic(dir, membersFile, make([]byte, 4096))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); rerr != nil {
		t.Fatal("restoring file size limit:", rerr)
	}
	if err == nil {
		t.Fatal("write past the file size limit returned nil")
	}

	got, rerr := os.ReadFile(filepath.Join(dir, membersFile))
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("target changed by a failed write: %q, want %q", got, old)
	}
	ents, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(ents) != 1 {
		t.Fatalf("failed write left %d entries behind, want only %s", len(ents), membersFile)
	}
}
