// The deterministic crash-recovery harness: in the spirit of the
// state-exploration approach of "Experiments in Model-Checking Optimistic
// Replication Algorithms" (PAPERS.md), recovery is verified not by
// hand-picked unit cases but by exhaustively crashing the streaming service
// at every registered state transition (stream.FaultPoint) across every
// figure workload and parallelism, resuming from the durable state a real
// crash would leave behind, and asserting the resumed run's reports,
// diagnostics, and per-querier remaining budgets are bit-identical to an
// uninterrupted batch run — the same equivalence bar PRs 1–3 established.
//
// The comparison runs through workload.(*Run).CanonicalDigest, which covers
// every released QueryResult field and every post-run budget metric; in
// particular, a report double-charged to any device's ledger (or a noise
// draw consumed twice) would shift the budget metrics or an estimate and
// break the digest. The batch reference itself is pinned by the committed
// golden digests under testdata/golden/.
package checkpoint_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/figures"
	"repro/internal/stream"
	"repro/internal/workload"
)

// errInjected is the sentinel a fault hook returns to simulate a crash.
var errInjected = errors.New("injected crash")

// snapshotCadenceDays keeps several snapshot generations per run (every
// trace in the catalog spans ≥ 90 days), so early crashes recover via pure
// WAL replay and late crashes via snapshot + short replay. The larger
// Criteo/synthetic workloads snapshot less often — their snapshots are
// proportionally bigger, and two generations already cover both recovery
// paths.
const (
	snapshotCadenceDays    = 14
	snapshotCadenceDaysBig = 30
)

// bigWorkload reports whether a cataloged scenario is one of the larger
// traces, which get a trimmed crash matrix (see occurrenceTargets).
func bigWorkload(name string) bool {
	return strings.HasPrefix(name, "criteo") || strings.HasPrefix(name, "synthetic")
}

// goldenDigests loads the committed per-figure-workload digest file, shared
// with internal/stream's TestGolden (which regenerates it under -update).
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	path, err := figures.GoldenDigestsPath()
	if err != nil {
		t.Fatalf("locating golden digests (regenerate with "+
			"`go test ./internal/stream -run TestGolden -update`): %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden digests: %v", err)
	}
	var digests map[string]string
	if err := json.Unmarshal(raw, &digests); err != nil {
		t.Fatalf("decoding golden digests: %v", err)
	}
	return digests
}

// batchRef returns the per-process cached batch reference for one cataloged
// workload (figures.BatchRef).
func batchRef(t *testing.T, w figures.Workload) *workload.Run {
	t.Helper()
	run, err := figures.BatchRef(w.Name)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// checkpointedCfg builds one streaming configuration with durability on.
func checkpointedCfg(t *testing.T, w figures.Workload, parallelism int, dir string) workload.Config {
	t.Helper()
	cfg, err := w.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = parallelism
	cfg.CheckpointDir = dir
	cfg.SnapshotEveryDays = snapshotCadenceDays
	if bigWorkload(w.Name) {
		cfg.SnapshotEveryDays = snapshotCadenceDaysBig
	}
	// Small group-commit and compaction knobs so every durability fault
	// point (group-commit, delta-captured, base-compacted) fires several
	// times per run and the crash matrix covers them.
	cfg.GroupCommitEvents = 64
	cfg.BaseEveryDeltas = 2
	return cfg
}

// occurrenceTargets picks which firings of a fault point to crash at, out
// of n total: the first (crash early, recover over the whole remaining
// trace) and — for the micro scenarios — also the last (crash at the end,
// recover from the final durable generation). Each extra occurrence costs
// roughly a full run, so the larger workloads stay at the first and -short
// trims everyone to it.
func occurrenceTargets(n int, big bool) []int {
	if n > 1 && !big && !testing.Short() {
		return []int{1, n}
	}
	return []int{1}
}

// TestCrashRecoveryMatrix is the acceptance check: for every figure workload
// × parallelism {1, 4} × every registered FaultPoint, run → crash → resume
// must reproduce the uninterrupted batch run bit for bit.
func TestCrashRecoveryMatrix(t *testing.T) {
	golden := goldenDigests(t)
	for _, w := range figures.All() {
		big := bigWorkload(w.Name)
		if big && testing.Short() {
			continue // the micro scenarios cover every point in -short
		}
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			batch := batchRef(t, w)
			wantDigest := batch.CanonicalDigest()
			switch g, ok := golden[w.Name]; {
			case !ok:
				t.Fatalf("no golden digest for %s; regenerate with "+
					"`go test ./internal/stream -run TestGolden -update`", w.Name)
			case g != wantDigest:
				t.Fatalf("batch reference %s diverges from committed golden digest %s", wantDigest, g)
			}
			for _, parallelism := range []int{1, 4} {
				t.Run(fmt.Sprintf("parallel-%d", parallelism), func(t *testing.T) {
					t.Parallel()

					// The counting run doubles as the uninterrupted
					// checkpointed run: the live WAL/snapshot path must
					// itself not perturb results.
					counts := map[stream.FaultPoint]int{}
					cfg := checkpointedCfg(t, w, parallelism, t.TempDir())
					cfg.FaultHook = func(p stream.FaultPoint) error { counts[p]++; return nil }
					full, err := workload.ExecuteSource(cfg, cfg.Dataset.Stream())
					if err != nil {
						t.Fatal(err)
					}
					if got := full.CanonicalDigest(); got != wantDigest {
						reportDivergence(t, "uninterrupted checkpointed run", batch, full)
					}

					for _, point := range stream.Points {
						n := counts[point]
						if n == 0 {
							t.Errorf("fault point %s never fired — crash matrix has a hole", point)
							continue
						}
						for _, at := range occurrenceTargets(n, big) {
							t.Run(fmt.Sprintf("%s@%d", point, at), func(t *testing.T) {
								crashAndResume(t, w, parallelism, point, at, wantDigest, batch)
							})
						}
					}
				})
			}
		})
	}
}

// crashAndResume kills one checkpointed streaming run at the at-th firing of
// point, resumes it from the durable state left behind, and requires the
// completed resumed run to match the batch reference bit for bit.
func crashAndResume(t *testing.T, w figures.Workload, parallelism int,
	point stream.FaultPoint, at int, wantDigest string, batch *workload.Run) {
	t.Helper()
	dir := t.TempDir()

	crash := checkpointedCfg(t, w, parallelism, dir)
	fired := 0
	crash.FaultHook = func(p stream.FaultPoint) error {
		if p == point {
			fired++
			if fired == at {
				return errInjected
			}
		}
		return nil
	}
	_, err := workload.ExecuteSource(crash, crash.Dataset.Stream())
	if !errors.Is(err, errInjected) {
		t.Fatalf("crash run: got %v, want injected crash (point fired %d times)", err, fired)
	}
	var fe *stream.FaultError
	if !errors.As(err, &fe) || fe.Point != point {
		t.Fatalf("crash surfaced as %v, want FaultError at %s", err, point)
	}

	resume := checkpointedCfg(t, w, parallelism, dir)
	resume.Resume = true
	run, err := workload.ExecuteSource(resume, resume.Dataset.Stream())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := run.CanonicalDigest(); got != wantDigest {
		reportDivergence(t, fmt.Sprintf("resume after crash at %s#%d", point, at), batch, run)
	}
}

// reportDivergence is the diagnostic path behind a digest mismatch: it
// pinpoints the first differing result or metric so a recovery bug reads as
// "query 17 estimate differs", not as an opaque hash.
func reportDivergence(t *testing.T, label string, batch, got *workload.Run) {
	t.Helper()
	if len(batch.Results) != len(got.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(batch.Results))
	}
	for i := range batch.Results {
		want, have := batch.Results[i], got.Results[i]
		if math.IsNaN(want.RMSRE) && math.IsNaN(have.RMSRE) {
			want.RMSRE, have.RMSRE = 0, 0
		}
		if want != have {
			t.Fatalf("%s: query %d differs:\n  batch:   %+v\n  resumed: %+v", label, i, batch.Results[i], got.Results[i])
		}
	}
	bAvg, bMax := batch.BudgetStats()
	gAvg, gMax := got.BudgetStats()
	if bAvg != gAvg || bMax != gMax {
		t.Fatalf("%s: budget stats (%v, %v), want (%v, %v) — a report was double- or under-charged",
			label, gAvg, gMax, bAvg, bMax)
	}
	if b, g := batch.PopulationAvgBudget(), got.PopulationAvgBudget(); b != g {
		t.Fatalf("%s: population avg budget %v, want %v", label, g, b)
	}
	if b, g := batch.ExecutedFraction(), got.ExecutedFraction(); b != g {
		t.Fatalf("%s: executed fraction %v, want %v", label, g, b)
	}
	if b, g := batch.RequestedDeviceEpochs(), got.RequestedDeviceEpochs(); b != g {
		t.Fatalf("%s: requested device-epochs %d, want %d", label, g, b)
	}
	bp, gp := batch.PerPairAverages(), got.PerPairAverages()
	if len(bp) != len(gp) {
		t.Fatalf("%s: %d pair averages, want %d", label, len(gp), len(bp))
	}
	for i := range bp {
		if bp[i] != gp[i] {
			t.Fatalf("%s: (device, advertiser) pair %d consumed %v, want %v — per-querier ledger state diverged",
				label, i, gp[i], bp[i])
		}
	}
	t.Fatalf("%s: digests differ but results and metrics compare equal — digest fields out of sync", label)
}

// TestCrashDuringRecoveryResume crashes a run, resumes it, crashes the
// *resumed* run too, and resumes again: recovery must compose — the second
// recovery starts from durable state the first recovery's continuation
// wrote.
func TestCrashDuringRecoveryResume(t *testing.T) {
	w, err := figures.ByName("cookie-monster")
	if err != nil {
		t.Fatal(err)
	}
	batch := batchRef(t, w)
	wantDigest := batch.CanonicalDigest()
	dir := t.TempDir()

	crashAt := func(point stream.FaultPoint, at int, resume bool) error {
		cfg := checkpointedCfg(t, w, 4, dir)
		cfg.Resume = resume
		fired := 0
		cfg.FaultHook = func(p stream.FaultPoint) error {
			if p == point {
				fired++
				if fired == at {
					return errInjected
				}
			}
			return nil
		}
		_, err := workload.ExecuteSource(cfg, cfg.Dataset.Stream())
		return err
	}

	if err := crashAt(stream.PointQueryExecuted, 3, false); !errors.Is(err, errInjected) {
		t.Fatalf("first crash: %v", err)
	}
	// The resumed run gets further (the second snapshot-commit happens
	// after the first crash's position) and then dies as well.
	if err := crashAt(stream.PointSnapshotCommitted, 2, true); !errors.Is(err, errInjected) {
		t.Fatalf("second crash: %v", err)
	}
	final := checkpointedCfg(t, w, 4, dir)
	final.Resume = true
	run, err := workload.ExecuteSource(final, final.Dataset.Stream())
	if err != nil {
		t.Fatalf("final resume: %v", err)
	}
	if run.CanonicalDigest() != wantDigest {
		reportDivergence(t, "resume after crashed recovery", batch, run)
	}
}

// TestResumeCompletedRun resumes a run that finished cleanly: the final
// snapshot subsumes the whole stream, so the "recovered" service has nothing
// left to do and must return the identical completed run.
func TestResumeCompletedRun(t *testing.T) {
	w, err := figures.ByName("cookie-monster")
	if err != nil {
		t.Fatal(err)
	}
	batch := batchRef(t, w)
	dir := t.TempDir()
	cfg := checkpointedCfg(t, w, 4, dir)
	if _, err := workload.ExecuteSource(cfg, cfg.Dataset.Stream()); err != nil {
		t.Fatal(err)
	}
	cfg = checkpointedCfg(t, w, 4, dir)
	cfg.Resume = true
	run, err := workload.ExecuteSource(cfg, cfg.Dataset.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if run.CanonicalDigest() != batch.CanonicalDigest() {
		reportDivergence(t, "resume of completed run", batch, run)
	}
}

// TestResumeRejectsScenarioMismatch pins the config fingerprint: durable
// state from one scenario must not silently seed a different one — neither
// from a completed run's final snapshot, nor from the initial snapshot that
// guards the WAL-only window before the first cadence snapshot. A different
// capacity is a different scenario, and so is a different on-device loss
// policy, whether the system or an explicit policy picks it.
func TestResumeRejectsScenarioMismatch(t *testing.T) {
	w, err := figures.ByName("cookie-monster")
	if err != nil {
		t.Fatal(err)
	}

	resumeMismatched := func(t *testing.T, dir string) {
		t.Helper()
		for _, m := range []struct {
			name   string
			mutate func(*workload.Config)
		}{
			{"capacity", func(c *workload.Config) { c.EpsilonG = 3 }},
			{"ara-like", func(c *workload.Config) { c.System = workload.ARALike }},
			{"ablation-policy", func(c *workload.Config) { c.Policy = core.ZeroLossOnlyPolicy{} }},
		} {
			mismatched := checkpointedCfg(t, w, 1, dir)
			mismatched.Resume = true
			m.mutate(&mismatched)
			if _, err := workload.ExecuteSource(mismatched, mismatched.Dataset.Stream()); err == nil ||
				!strings.Contains(err.Error(), "different scenario") {
				t.Errorf("%s: scenario mismatch accepted: %v", m.name, err)
			}
		}
	}

	t.Run("after-completed-run", func(t *testing.T) {
		dir := t.TempDir()
		cfg := checkpointedCfg(t, w, 1, dir)
		if _, err := workload.ExecuteSource(cfg, cfg.Dataset.Stream()); err != nil {
			t.Fatal(err)
		}
		resumeMismatched(t, dir)
	})

	t.Run("before-first-cadence-snapshot", func(t *testing.T) {
		dir := t.TempDir()
		cfg := checkpointedCfg(t, w, 1, dir)
		fired := 0
		cfg.FaultHook = func(p stream.FaultPoint) error {
			// Die on day 2, long before the first cadence snapshot: the
			// directory holds only the fingerprinted initial snapshot and
			// the WAL.
			if p == stream.PointDayEnd {
				fired++
				if fired == 2 {
					return errInjected
				}
			}
			return nil
		}
		if _, err := workload.ExecuteSource(cfg, cfg.Dataset.Stream()); !errors.Is(err, errInjected) {
			t.Fatalf("crash run: %v", err)
		}
		resumeMismatched(t, dir)
	})
}

// TestRetentionCheckpointResume covers the service's event-store retention
// through the raw stream API, whose Run carries the retention telemetry the
// workload client drops: an uninterrupted run must reclaim records and
// nonces and keep its resident records well below the trace's, and a run
// crashed right after a retention advance and resumed must release the same
// results and report the same retention history.
func TestRetentionCheckpointResume(t *testing.T) {
	w, err := figures.ByName("cookie-monster")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := w.Config()
	if err != nil {
		t.Fatal(err)
	}
	streamCfg := func(dir string) stream.Config {
		return stream.Config{
			Source:            cfg.Dataset.Stream(),
			EpsilonG:          cfg.EpsilonG,
			Seed:              cfg.Seed,
			Parallelism:       4,
			CheckpointDir:     dir,
			SnapshotEveryDays: snapshotCadenceDays,
		}
	}

	svc, err := stream.New(streamCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if uninterrupted.EvictedRecords == 0 || uninterrupted.RetiredNonces == 0 {
		t.Fatalf("run reclaimed nothing (%d records, %d nonces); retention path not exercised",
			uninterrupted.EvictedRecords, uninterrupted.RetiredNonces)
	}
	if total := events.NewFrozen(7, cfg.Dataset.Events).NumRecords(); uninterrupted.PeakResidentRecords >= total {
		t.Fatalf("peak resident records %d not below trace total %d", uninterrupted.PeakResidentRecords, total)
	}

	dir := t.TempDir()
	crash := streamCfg(dir)
	fired := 0
	crash.FaultHook = func(p stream.FaultPoint) error {
		// Crash right after a retention advance past the second snapshot,
		// when evicted records are part of the durable state being
		// recovered.
		if p == stream.PointRetentionAdvanced {
			fired++
			if fired == 5*snapshotCadenceDays {
				return errInjected
			}
		}
		return nil
	}
	svc, err = stream.New(crash)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Serve(); !errors.Is(err, errInjected) {
		t.Fatalf("crash run: %v", err)
	}

	svc, err = stream.ResumeFrom(streamCfg(dir), dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Results) != len(uninterrupted.Results) {
		t.Fatalf("%d results, want %d", len(resumed.Results), len(uninterrupted.Results))
	}
	for i := range uninterrupted.Results {
		want, got := uninterrupted.Results[i], resumed.Results[i]
		if math.IsNaN(want.RMSRE) && math.IsNaN(got.RMSRE) {
			want.RMSRE, got.RMSRE = 0, 0
		}
		if want != got {
			t.Fatalf("query %d differs:\n  uninterrupted: %+v\n  resumed:       %+v",
				i, uninterrupted.Results[i], resumed.Results[i])
		}
	}
	if resumed.EvictedRecords != uninterrupted.EvictedRecords ||
		resumed.RetiredNonces != uninterrupted.RetiredNonces ||
		resumed.PeakResidentRecords != uninterrupted.PeakResidentRecords {
		t.Fatalf("retention telemetry diverged: evicted %d/%d, retired %d/%d, peak resident %d/%d",
			resumed.EvictedRecords, uninterrupted.EvictedRecords,
			resumed.RetiredNonces, uninterrupted.RetiredNonces,
			resumed.PeakResidentRecords, uninterrupted.PeakResidentRecords)
	}
}
