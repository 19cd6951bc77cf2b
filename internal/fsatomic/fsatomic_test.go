package fsatomic

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileCreatesAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "deeper", "state.json")

	if err := WriteFile(path, []byte("v1")); err != nil {
		t.Fatalf("WriteFile (create): %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("after create: got %q err %v", got, err)
	}

	if err := WriteFile(path, []byte("v2 longer")); err != nil {
		t.Fatalf("WriteFile (replace): %v", err)
	}
	got, err = os.ReadFile(path)
	if err != nil || !bytes.Equal(got, []byte("v2 longer")) {
		t.Fatalf("after replace: got %q err %v", got, err)
	}
}

func TestWriteFileLeavesNoTempDebris(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		if err := WriteFile(filepath.Join(dir, "f.json"), []byte("x")); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 || entries[0].Name() != "f.json" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("want exactly [f.json], got %v", names)
	}
}

// A streaming writer that fails half way must leave the previous file
// and nothing else: the torn bytes never reach the target name.
func TestWriteToFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := WriteFile(path, []byte("previous")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder failed")
	err := WriteTo(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half a chec")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteTo returned %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "previous" {
		t.Fatalf("after failed WriteTo: got %q err %v", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed WriteTo left debris: %v", entries)
	}
}

func TestSyncDirOnRealDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatalf("SyncDir on missing dir: want error, got nil")
	}
}
