package stream_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestCompactionReanchorsPastCorruptDelta pins that the chain on disk
// converges again after a committed delta turns unreadable under it — a bit
// flipped as its file closed: the next compaction folds only the chain below
// that delta and reports its head, and the tick after writes a base that
// re-anchors the chain at the live head. Without the re-anchor every later
// compaction re-folds the same stale chain, GC's cutoff never moves and the
// directory grows for the rest of the run. The chain must reach the live
// head within BaseEveryDeltas+1 ticks, the directory must hold at most one
// file more than the uncorrupted run's ever did, and the run must end on the
// uncorrupted run's digest.
func TestCompactionReanchorsPastCorruptDelta(t *testing.T) {
	meta, evs := stream.HostileTrace(t, 11)
	const every = 3
	type outcome struct {
		digest                  string
		maxFiles, behind, ticks int
	}
	serve := func(flip bool) outcome {
		dir := t.TempDir()
		cfg := stream.Config{
			Source: stream.SliceSource(meta, evs), EpsilonG: 2, Seed: 5, LatePolicy: stream.LateDrop,
			CheckpointDir: dir, SnapshotEveryDays: 5, BaseEveryDeltas: every,
		}
		var svc *stream.Service
		var o outcome
		commits, streak := 0, 0
		cfg.FaultHook = func(p stream.FaultPoint) error {
			switch p {
			case stream.PointSnapshotCommitted:
				if commits++; flip && commits == 2 {
					path := filepath.Join(dir, "delta-00000003.ckpt")
					raw, err := os.ReadFile(path)
					if err != nil {
						return err
					}
					raw[len(raw)-1] ^= 0xff
					if err := os.WriteFile(path, raw, 0o644); err != nil {
						return err
					}
				}
			case stream.PointDeltaCaptured:
				// No write is in flight here: the previous one is joined and
				// this tick's is not yet started.
				o.ticks++
				chain, _, err := checkpoint.NewStore(dir, nil).LoadChain()
				if err != nil {
					return err
				}
				if chain == nil || chain.Gen != svc.ChainHead() {
					o.behind++
					if streak++; streak > every+1 {
						t.Fatalf("tick %d: the chain on disk has stayed below the live head %d for %d ticks",
							o.ticks, svc.ChainHead(), streak)
					}
				} else {
					streak = 0
				}
				files, err := os.ReadDir(dir)
				if err != nil {
					return err
				}
				o.maxFiles = max(o.maxFiles, len(files))
			}
			return nil
		}
		var err error
		if svc, err = stream.New(cfg); err != nil {
			t.Fatal(err)
		}
		run, err := svc.Serve()
		if err != nil {
			t.Fatal(err)
		}
		if streak != 0 {
			t.Fatalf("the run ended with the chain on disk %d ticks below the live head", streak)
		}
		o.digest = (&workload.Run{Config: cfg, Run: run}).CanonicalDigest()
		return o
	}
	clean, flipped := serve(false), serve(true)
	if clean.behind != 0 || flipped.behind == 0 || flipped.ticks < 10 {
		t.Fatalf("the flip exercises nothing: %d ticks, %d behind the live head (uncorrupted %d)",
			flipped.ticks, flipped.behind, clean.behind)
	}
	if flipped.maxFiles > clean.maxFiles+1 {
		t.Fatalf("the corrupted run's directory held %d files, the uncorrupted run's at most %d",
			flipped.maxFiles, clean.maxFiles)
	}
	if flipped.digest != clean.digest {
		t.Fatalf("digest %s, uncorrupted run %s", flipped.digest, clean.digest)
	}
	t.Logf("%d ticks, %d behind the live head; at most %d files, uncorrupted %d",
		flipped.ticks, flipped.behind, flipped.maxFiles, clean.maxFiles)
}
