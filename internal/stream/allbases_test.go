package stream_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestAllBasesDirectoryResumes pins that a directory holding no delta at all
// — every cadence tick a complete base, which is what the retired
// full-snapshot mode wrote — is a chain like any other: a crashed run resumes
// from its newest base, replays the log above it, continues with deltas, and
// ends on the batch reference.
func TestAllBasesDirectoryResumes(t *testing.T) {
	wcfg := figureConfig(t, "cookie-monster")
	ref := batchRef(t, "cookie-monster")
	config := func(dir string) stream.Config {
		return stream.Config{
			Source: wcfg.Dataset.Stream(), EpsilonG: wcfg.EpsilonG, Seed: wcfg.Seed,
			CheckpointDir: dir, SnapshotEveryDays: 7, GroupCommitEvents: 64,
		}
	}

	// The live run keeps its own (delta) directory; the hook writes the
	// all-bases one beside it, tick by tick, then crashes mid-segment.
	live, old := t.TempDir(), t.TempDir()
	oldStore := checkpoint.NewStore(old, nil)
	errCrash := errors.New("crash")
	var svc *stream.Service
	ticks, sinceTick := 0, 0
	cfg := config(live)
	cfg.FaultHook = func(p stream.FaultPoint) error {
		switch p {
		case stream.PointDeltaCaptured:
			gen, payload, err := svc.FullSnapshot()
			if err != nil {
				return err
			}
			if _, err := oldStore.WriteBase(gen, payload); err != nil {
				return err
			}
			ticks, sinceTick = ticks+1, 0
		case stream.PointEventIngested:
			if sinceTick++; ticks == 5 && sinceTick == 300 {
				return errCrash
			}
		}
		return nil
	}
	var err error
	if svc, err = stream.New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Serve(); !errors.Is(err, errCrash) {
		t.Fatalf("crash run: %v", err)
	}
	// The log is the same in both protocols: segments rotate with the ticks.
	segments, err := filepath.Glob(filepath.Join(live, "*.log"))
	if err != nil || len(segments) < 5 {
		t.Fatalf("live directory holds %d WAL segments (%v)", len(segments), err)
	}
	for _, seg := range segments {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(old, filepath.Base(seg)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := oldStore.GC(2); err != nil { // every base commit of that mode ended in one
		t.Fatal(err)
	}
	names, err := os.ReadDir(old)
	if err != nil {
		t.Fatal(err)
	}
	bases := 0
	for _, e := range names {
		if strings.HasPrefix(e.Name(), "delta-") {
			t.Fatalf("all-bases directory holds %s", e.Name())
		}
		if strings.HasPrefix(e.Name(), "base-") {
			bases++
		}
	}
	if bases != 2 {
		t.Fatalf("all-bases directory holds %d bases after GC, want 2", bases)
	}

	resumed, err := stream.ResumeFrom(config(old), old)
	if err != nil {
		t.Fatal(err)
	}
	srun, err := resumed.Serve()
	if err != nil {
		t.Fatal(err)
	}
	resumedRun := &workload.Run{Config: wcfg, Run: srun}
	if got, want := resumedRun.CanonicalDigest(), ref.CanonicalDigest(); got != want {
		t.Errorf("resumed digest %s, batch reference %s", got, want)
	}
	if d := srun.Durability; d.RecoveryFallbacks != 0 || d.DeltaBytes == 0 {
		t.Errorf("resume took %d fallbacks and went on to write %d delta bytes; want 0 and > 0",
			d.RecoveryFallbacks, d.DeltaBytes)
	}
}
