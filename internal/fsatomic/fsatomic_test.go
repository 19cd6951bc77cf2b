package fsatomic

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
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

// A directory removed between two writes is made again by the second,
// which then lands: the temp file's creation finds it gone and retries.
func TestWriteToHealsRemovedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	path := filepath.Join(dir, "state.json")
	if err := WriteFile(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("v2")); err != nil {
		t.Fatalf("WriteFile after the directory went: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "v2" {
		t.Fatalf("after heal: got %q err %v", got, err)
	}
}

// Concurrent writers of one path each stream into their own temp file:
// the target always holds one writer's whole payload, and no temp file
// is left behind.
func TestConcurrentWritersOfOnePath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	payloads := make([][]byte, 4)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 64<<10)
	}
	var wg sync.WaitGroup
	for _, p := range payloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 8; n++ {
				if err := WriteTo(path, func(w io.Writer) error {
					for off := 0; off < len(p); off += 4 << 10 {
						if _, err := w.Write(p[off : off+4<<10]); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := false
	for _, p := range payloads {
		whole = whole || bytes.Equal(got, p)
	}
	if !whole {
		t.Fatalf("target holds a mix of writers (%d bytes)", len(got))
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("concurrent writers left debris: %d entries", len(entries))
	}
}
