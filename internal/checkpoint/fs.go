package checkpoint

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the narrow filesystem surface the durability layer writes through.
// Production uses OsFS; this package's tests substitute errfs (FaultFS in
// errfs_test.go) to inject disk faults (short writes, fsync failures, torn
// renames, bit-flips) underneath the exact code paths that run in
// production. The interface is deliberately small: every durable artifact
// — snapshot generations and WAL segments — is created, synced, renamed,
// and read back through these calls, so a fault injected here is a fault
// the recovery protocol must survive.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so a rename into it survives power loss.
	// Implementations may degrade to a no-op on filesystems that refuse
	// directory syncs; the frame CRCs still catch the resulting holes.
	SyncDir(dir string) error
}

// File is the per-file surface: sequential writes for appends, positioned
// reads/writes for corruption injection and inspection, plus the durability
// calls (Sync) the group-commit protocol batches.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.Seeker
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// OsFS is the passthrough implementation over the real filesystem.
type OsFS struct{}

// OpenFile implements FS.
func (OsFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements FS.
func (OsFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OsFS) Remove(name string) error { return os.Remove(name) }

// ReadFile implements FS.
func (OsFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir implements FS.
func (OsFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// MkdirAll implements FS.
func (OsFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// SyncDir implements FS. Best-effort, like syncDir: some filesystems refuse
// to sync directories, and the CRC frames catch what slips through.
func (OsFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
