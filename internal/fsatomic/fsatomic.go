// Package fsatomic provides the single durable atomic-write primitive
// every file that must survive a crash goes through: checkpoints, run
// manifests, and jobd's per-job outputs and sweep summaries. The
// sequence is write-to-temp, fsync the temp, rename over the target,
// then fsync the parent directory so the rename itself survives a
// power cut. Skipping either
// fsync reintroduces the torn-lease bug this package exists to close:
// after a crash the rename can surface an empty or partial file that
// readers then treat as corrupt — and a corrupt lease is stealable, so a
// live owner loses its jobs to a failure that never happened.
package fsatomic

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// WriteFile atomically and durably replaces path with data.
func WriteFile(path string, data []byte) error {
	return WriteTo(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteTo atomically and durably replaces path with whatever write
// streams into w (a checkpoint's encoder writes its pieces straight
// into the temp file). The parent directory is created if missing:
// only when making the temp file finds it gone, so a write into a
// directory that exists pays no Stat for it. On any error, write's included, the temp file is
// removed and the previous contents of path (if any) are untouched.
//
// Every call writes its own temp file (os.CreateTemp's unique name), so
// concurrent writers of one path never write into each other's.
func WriteTo(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	pattern := filepath.Base(path) + ".tmp*"
	tmp, err := os.CreateTemp(dir, pattern)
	if errors.Is(err, fs.ErrNotExist) {
		// Never made, or removed mid-run (disk yanked, cleanup raced):
		// make it and try once more.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		tmp, err = os.CreateTemp(dir, pattern)
	}
	if err != nil {
		return err
	}
	renamed := false
	defer func() {
		if !renamed {
			os.Remove(tmp.Name())
		}
	}()
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	renamed = true
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a preceding rename is durable. Some
// filesystems (and some CI sandboxes) refuse fsync on directories with
// EINVAL or ENOTSUP; that is tolerated — the rename is still atomic,
// just not guaranteed durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if pe, ok := err.(*os.PathError); ok {
			if errno, ok := pe.Err.(syscall.Errno); ok && (errno == syscall.EINVAL || errno == syscall.ENOTSUP) {
				return nil
			}
		}
		return err
	}
	return nil
}
