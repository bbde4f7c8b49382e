package stream_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/stream"
)

// deltaRenamePanic is what panicFS raises when a delta commits.
type deltaRenamePanic string

// panicFS passes every call through to the real filesystem, except that
// committing a delta generation panics, and counts the files still open.
type panicFS struct {
	checkpoint.OsFS
	open atomic.Int64
}

func (p *panicFS) OpenFile(name string, flag int, perm os.FileMode) (checkpoint.File, error) {
	f, err := p.OsFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	p.open.Add(1)
	return &countedFile{File: f, open: &p.open}, nil
}

func (p *panicFS) Rename(oldpath, newpath string) error {
	if name := filepath.Base(newpath); strings.HasPrefix(name, "delta-") {
		panic(deltaRenamePanic(name))
	}
	return p.OsFS.Rename(oldpath, newpath)
}

// countedFile decrements its filesystem's open count when it closes.
type countedFile struct {
	checkpoint.File
	open *atomic.Int64
}

func (f *countedFile) Close() error {
	f.open.Add(-1)
	return f.File.Close()
}

// TestWriterPanicReachesServe pins that a panic in a delta's write, which
// runs off the ingest thread, is raised again on the goroutine that called
// Serve, where the caller can recover it, and that Serve still closes the
// WAL and leaves no goroutine behind on the way out.
func TestWriterPanicReachesServe(t *testing.T) {
	meta, evs := stream.HostileTrace(t, 11)
	fsys := &panicFS{}
	svc, err := stream.New(stream.Config{
		Source: stream.SliceSource(meta, evs), EpsilonG: 2, Seed: 5, LatePolicy: stream.LateDrop,
		CheckpointDir: t.TempDir(), SnapshotEveryDays: 5, DurableFS: fsys,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	got := func() (v any) {
		defer func() { v = recover() }()
		if _, err := svc.Serve(); err != nil {
			t.Errorf("Serve returned %v, want a panic", err)
		}
		return nil
	}()
	if want := deltaRenamePanic("delta-00000002.ckpt"); got != want {
		t.Fatalf("recovered %#v, want %#v", got, want)
	}
	if n := fsys.open.Load(); n != 0 {
		t.Errorf("%d files still open after Serve panicked, want 0 (the WAL closed)", n)
	}
	// A goroutine that has returned may still be on its way out.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after Serve panicked, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}
