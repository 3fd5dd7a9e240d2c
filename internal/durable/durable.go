// Package durable is the one implementation of crash-safe files: Log, an
// fsynced append log of CSF1 frames whose replay keeps the valid prefix,
// and WriteFileAtomic, which leaves either the old bytes or the new ones.
//
// Data is durable once its file is fsynced, and a create or rename once
// its directory is fsynced too; otherwise a mount after power loss can
// resurrect the old directory entry. A kill -9 test cannot see that loss,
// since the page cache survives process death, so the tests cut power in
// a file system model that forgets whatever was never fsynced.
package durable

import (
	"bufio"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// fileSystem is every file operation the package makes. Production uses
// osFS; the tests substitute a model of power loss.
type fileSystem interface {
	ReadFile(name string) ([]byte, error)
	OpenFile(name string, flag int, perm fs.FileMode) (file, error)
	CreateTemp(dir, pattern string) (file, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDirNames(dir string) ([]string, error)
	SyncDir(dir string) error
}

// file is the part of *os.File the package uses.
type file interface {
	io.Writer
	Name() string
	Chmod(mode fs.FileMode) error
	Truncate(size int64) error
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (file, error) {
	return osFile(os.OpenFile(name, flag, perm))
}

func (osFS) CreateTemp(dir, pattern string) (file, error) { return osFile(os.CreateTemp(dir, pattern)) }

// osFile keeps a failed open from returning a non-nil file holding a nil
// *os.File.
func osFile(f *os.File, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDirNames(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Readdirnames(-1)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// WriteFileAtomic replaces path, mode 0644, with what write streams: a
// temp file named .tmp-* in path's directory is fsynced, renamed over
// path, and the directory fsynced. On error path keeps its old bytes
// unless only the directory fsync failed. write's errors come back as is.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	_, err := writeAtomic(osFS{}, path, ".tmp-*", write)
	return err
}

// writeAtomic is WriteFileAtomic on fsys with the temp file named by
// pattern (see os.CreateTemp). renamed reports whether the new file took
// path's name, which a failed directory fsync does not undo.
func writeAtomic(fsys fileSystem, path, pattern string, write func(io.Writer) error) (renamed bool, err error) {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return false, err
	}
	err = f.Chmod(0o644)
	if err == nil {
		bw := bufio.NewWriterSize(f, 1<<20)
		if err = write(bw); err == nil {
			err = bw.Flush()
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(f.Name(), path)
	}
	if err != nil {
		fsys.Remove(f.Name()) // best effort: a stale temp is only litter
		return false, err
	}
	return true, fsys.SyncDir(dir)
}
