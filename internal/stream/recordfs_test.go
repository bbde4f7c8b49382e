package stream_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/stream"
)

// fsOpKind names one call a recordFS logs.
type fsOpKind string

const (
	opOpen     fsOpKind = "open"
	opWrite    fsOpKind = "write"
	opTruncate fsOpKind = "truncate"
	opSync     fsOpKind = "sync"
	opClose    fsOpKind = "close"
	opRename   fsOpKind = "rename"
	opRemove   fsOpKind = "remove"
	opSyncDir  fsOpKind = "syncdir"
)

// fsOp is one call that changed or hardened what is on disk, as a
// recordFS saw it return without error. A write keeps its offset and a copy
// of its bytes, so the log alone can rebuild every file it touched.
type fsOp struct {
	kind fsOpKind
	path string // the file, the directory of a syncdir, a rename's source
	to   string // a rename's destination
	off  int64  // where a write began
	data []byte // a write's bytes
}

func (op fsOp) String() string {
	switch op.kind {
	case opRename:
		return fmt.Sprintf("rename %s → %s", filepath.Base(op.path), filepath.Base(op.to))
	case opWrite:
		return fmt.Sprintf("write %s @%d+%d", filepath.Base(op.path), op.off, len(op.data))
	}
	return fmt.Sprintf("%s %s", op.kind, filepath.Base(op.path))
}

// recordFS passes every call through to the real filesystem and logs, in
// the order they return, the ones that change or harden what is on disk.
// It is safe for concurrent use: the WAL's syncer syncs while the day clock
// writes.
type recordFS struct {
	checkpoint.OsFS
	mu  sync.Mutex
	ops []fsOp
}

func (r *recordFS) log(op fsOp) {
	op.path, op.to = filepath.Clean(op.path), filepath.Clean(op.to)
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

// Ops returns a copy of the log so far.
func (r *recordFS) Ops() []fsOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.ops)
}

func (r *recordFS) OpenFile(name string, flag int, perm os.FileMode) (checkpoint.File, error) {
	f, err := r.OsFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	r.log(fsOp{kind: opOpen, path: name})
	return &recordFile{File: f, fs: r, path: name}, nil
}

func (r *recordFS) Rename(oldpath, newpath string) error {
	err := r.OsFS.Rename(oldpath, newpath)
	if err == nil {
		r.log(fsOp{kind: opRename, path: oldpath, to: newpath})
	}
	return err
}

func (r *recordFS) Remove(name string) error {
	err := r.OsFS.Remove(name)
	if err == nil {
		r.log(fsOp{kind: opRemove, path: name})
	}
	return err
}

func (r *recordFS) SyncDir(dir string) error {
	err := r.OsFS.SyncDir(dir)
	if err == nil {
		r.log(fsOp{kind: opSyncDir, path: dir})
	}
	return err
}

// recordFile logs its file's writes, truncations, syncs and close. The
// store writes sequentially, so Write alone carries the bytes.
type recordFile struct {
	checkpoint.File
	fs   *recordFS
	path string
}

func (f *recordFile) Write(p []byte) (int, error) {
	off, err := f.File.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	n, err := f.File.Write(p)
	if n > 0 {
		f.fs.log(fsOp{kind: opWrite, path: f.path, off: off, data: slices.Clone(p[:n])})
	}
	return n, err
}

func (f *recordFile) Truncate(size int64) error {
	err := f.File.Truncate(size)
	if err == nil {
		f.fs.log(fsOp{kind: opTruncate, path: f.path, off: size})
	}
	return err
}

func (f *recordFile) Sync() error {
	err := f.File.Sync()
	if err == nil {
		f.fs.log(fsOp{kind: opSync, path: f.path})
	}
	return err
}

func (f *recordFile) Close() error {
	err := f.File.Close()
	if err == nil {
		f.fs.log(fsOp{kind: opClose, path: f.path})
	}
	return err
}

// TestDurableWriteOrder runs a small durable Cookie Monster run (the shape
// of testdata/ckpt-7fcfa9d: snapshots every two days, compacted every two
// deltas, group commits of 2) through a recordFS and holds its log to the
// order a machine crash needs:
//
//   - every generation X: its last write to X.tmp, then a sync of X.tmp,
//     its close, the rename to X, and then a sync of the directory before
//     any other rename or remove;
//   - every WAL segment: its preamble written and synced, and then a sync
//     of the directory, before its first frame is written.
//
// Without the file sync, a crash can commit a name over unwritten bytes;
// without the directory syncs, it can lose a generation or a whole segment
// whose frames were synced.
func TestDurableWriteOrder(t *testing.T) {
	dir := t.TempDir()
	fsys := &recordFS{}
	cfg := stream.CMFixtureConfig(dir)
	cfg.DurableFS = fsys
	svc, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if run.Durability.SnapshotCaptures == 0 || run.Durability.BaseCompactions == 0 {
		t.Fatalf("run captured %d snapshots and compacted %d bases, want both", run.Durability.SnapshotCaptures, run.Durability.BaseCompactions)
	}
	ops := fsys.Ops()
	dir = filepath.Clean(dir)
	dump := func() string {
		var b strings.Builder
		for i, op := range ops {
			fmt.Fprintf(&b, "\n%4d %v", i, op)
		}
		return b.String()
	}

	gens, segments := 0, 0
	for r, op := range ops {
		if op.kind != opRename || !strings.HasSuffix(op.path, ".tmp") {
			continue
		}
		gens++
		tmp, name := op.path, filepath.Base(op.to)
		if strings.TrimSuffix(tmp, ".tmp") != op.to {
			t.Fatalf("op %d renames %s onto %s", r, filepath.Base(tmp), name)
		}
		// Since the staging file was opened: its last write, then a sync,
		// then its close, all before the rename.
		lastWrite, synced, closed := -1, -1, -1
		for i := r - 1; i >= 0 && !(ops[i].kind == opOpen && ops[i].path == tmp); i-- {
			if ops[i].path != tmp {
				continue
			}
			switch k := ops[i].kind; {
			case k == opWrite && lastWrite < 0:
				lastWrite = i
			case k == opSync && synced < 0:
				synced = i
			case k == opClose && closed < 0:
				closed = i
			}
		}
		switch {
		case lastWrite < 0:
			t.Errorf("%s: renamed at op %d with nothing written to its staging file", name, r)
		case synced < lastWrite:
			t.Errorf("%s: renamed at op %d with no sync of its staging file after its last write (op %d)", name, r, lastWrite)
		case closed < synced:
			t.Errorf("%s: renamed at op %d with its staging file not closed after its sync (op %d)", name, r, synced)
		}
		// After the rename: a sync of the directory before any other
		// rename or remove.
		next := slices.IndexFunc(ops[r+1:], func(o fsOp) bool {
			return o.kind == opSyncDir || o.kind == opRename || o.kind == opRemove
		})
		if next < 0 || ops[r+1+next].kind != opSyncDir || ops[r+1+next].path != dir {
			what := "the end of the run"
			if next >= 0 {
				what = fmt.Sprintf("op %d, %v", r+1+next, ops[r+1+next])
			}
			t.Errorf("%s: renamed at op %d, and the directory is not synced before %s", name, r, what)
		}
	}

	for i, op := range ops {
		if op.kind != opWrite || op.off != 0 || !strings.HasPrefix(filepath.Base(op.path), "wal-") {
			continue
		}
		segments++
		name := filepath.Base(op.path)
		// Up to its first frame: a sync of the segment after the preamble,
		// then a sync of the directory.
		end := len(ops)
		if f := slices.IndexFunc(ops[i+1:], func(o fsOp) bool { return o.kind == opWrite && o.path == op.path }); f >= 0 {
			end = i + 1 + f
		}
		synced := slices.IndexFunc(ops[i+1:end], func(o fsOp) bool { return o.kind == opSync && o.path == op.path })
		if synced < 0 {
			t.Errorf("%s: preamble (op %d) not synced before op %d", name, i, end)
			continue
		}
		if !slices.ContainsFunc(ops[i+1+synced:end], func(o fsOp) bool { return o.kind == opSyncDir && o.path == dir }) {
			t.Errorf("%s: directory not synced between the preamble's sync (op %d) and the first frame (op %d)",
				name, i+1+synced, end)
		}
	}
	if gens == 0 || segments == 0 {
		t.Errorf("log holds %d generations and %d WAL segments", gens, segments)
	}
	if t.Failed() {
		t.Log("the run's log:" + dump())
	}
	t.Logf("%d ops: %d generations, %d WAL segments", len(ops), gens, segments)
}
