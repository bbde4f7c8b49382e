// The durability property harness: random interleavings of ingest, delta
// capture, base compaction, crashes, and injected disk faults (errfs) must
// always converge to a run bit-identical to an undisturbed reference —
// including the admission counters (LatePolicy drops) and the per-device
// ledger denial counters that only exist because hostile traffic was
// drained. This is the fault-matrix complement to sim_test.go's exhaustive
// crash-at-every-point matrix: there the disk is honest and the crash
// placement is exhaustive; here the crash placement is randomized and the
// disk itself lies (short writes, failed fsyncs, torn renames, bit flips).
package checkpoint_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/workload"
)

// durabilitySpec is the hostile-traffic scenario the property runs under:
// late re-delivery exercises the LatePolicy drop counters, the adversarial
// querier exercises ledger denials — both state that must survive recovery.
func durabilitySpec() scenario.Spec {
	return scenario.Spec{
		Name: "durability-property",
		Seed: 7,
		Late: &scenario.LateSpec{Fraction: 0.08, DelayDays: 3},
		Adversary: &scenario.AdversarySpec{
			Site:              events.Intern("attacker.example"),
			TargetDevices:     6,
			ConversionsPerDay: 4,
			BatchSize:         50,
			MaxValue:          1,
			AvgReportValue:    2,
		},
	}
}

// durabilityCfg is the shared workload configuration (checkpoint knobs added
// per run).
func durabilityCfg(t *testing.T) (workload.Config, scenario.Spec, *workload.Run) {
	t.Helper()
	h, err := scenario.DefaultHarness()
	if err != nil {
		t.Fatal(err)
	}
	spec := durabilitySpec()
	base := h.Dataset
	cfg := h.Config
	cfg.LatePolicy = stream.LateDrop
	cfg.Parallelism = 4

	ref, err := workload.ExecuteSource(cfg, spec.Source(base))
	if err != nil {
		t.Fatal(err)
	}
	if ref.EventsDropped == 0 {
		t.Fatal("reference run dropped nothing; the LatePolicy path is not exercised")
	}
	if ref.BudgetDenials() == 0 {
		t.Fatal("reference run denied nothing; the ledger-denial path is not exercised")
	}
	h.Dataset = base
	return cfg, spec, ref
}

// checkRun compares one recovered run against the reference on everything
// the durability contract promises to preserve.
func checkRun(t *testing.T, label string, ref, run *workload.Run) {
	t.Helper()
	if got, want := run.CanonicalDigest(), ref.CanonicalDigest(); got != want {
		t.Errorf("%s: digest %s, want %s", label, got, want)
		diffRuns(t, ref, run)
	}
	if run.EventsDropped != ref.EventsDropped {
		t.Errorf("%s: %d dropped events, want %d", label, run.EventsDropped, ref.EventsDropped)
	}
	if got, want := run.BudgetDenials(), ref.BudgetDenials(); got != want {
		t.Errorf("%s: %d ledger denials, want %d", label, got, want)
	}
}

// diffRuns narrows a digest mismatch down to the fields that diverged, so
// a failing interleaving reports what recovery got wrong rather than two
// opaque hashes.
func diffRuns(t *testing.T, ref, run *workload.Run) {
	t.Helper()
	t.Logf("diff: ingested %d vs %d, requested device-epochs %d vs %d, results %d vs %d",
		ref.EventsIngested, run.EventsIngested,
		ref.RequestedDeviceEpochs(), run.RequestedDeviceEpochs(),
		len(ref.Results), len(run.Results))
	refAvg, refMax := ref.BudgetStats()
	runAvg, runMax := run.BudgetStats()
	if refAvg != runAvg || refMax != runMax {
		t.Logf("diff: budget avg/max %v/%v vs %v/%v", refAvg, refMax, runAvg, runMax)
	}
	n := len(ref.Results)
	if len(run.Results) < n {
		n = len(run.Results)
	}
	shown := 0
	for i := 0; i < n && shown < 5; i++ {
		a, b := ref.Results[i], run.Results[i]
		if a != b {
			t.Logf("diff: result %d: ref %+v vs run %+v", i, a, b)
			shown++
		}
	}
}

// TestDurabilityPropertyRandomFaults is the property: for every seeded
// placement of crashes and disk faults, bounded retries always land on a
// completed run identical to the reference. The fault budget (MaxFaults)
// guarantees termination: once spent, the filesystem behaves and a
// crash-free attempt completes.
func TestDurabilityPropertyRandomFaults(t *testing.T) {
	cfg, spec, ref := durabilityCfg(t)
	h, err := scenario.DefaultHarness()
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		// Named for what every cadence tick writes.
		t.Run(fmt.Sprintf("delta-seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			dir := t.TempDir()
			ffs := checkpoint.NewFaultFS(nil, checkpoint.FaultSpec{
				Seed:       seed,
				MaxFaults:  4,
				ShortWrite: 0.10,
				FsyncFail:  0.10,
				TornRename: 0.25,
				BitFlip:    0.10,
			})

			attempt := func(n int, resume bool) (*workload.Run, error) {
				run := cfg
				run.CheckpointDir = dir
				run.SnapshotEveryDays = 7
				run.BaseEveryDeltas = 2
				run.GroupCommitEvents = 64
				run.DurableFS = ffs
				run.Resume = resume
				// The first few attempts also crash at a random firing
				// of a random fault point; later attempts rely only on
				// whatever disk faults remain in the budget.
				if n < 5 {
					point := stream.Points[rng.Intn(len(stream.Points))]
					target := 1 + rng.Intn(120)
					fired := 0
					run.FaultHook = func(p stream.FaultPoint) error {
						if p == point {
							fired++
							if fired == target {
								return errInjected
							}
						}
						return nil
					}
				}
				return workload.ExecuteSource(run, spec.Source(h.Dataset))
			}

			const maxAttempts = 12
			var run *workload.Run
			var lastErr error
			for n := 0; n < maxAttempts; n++ {
				run, lastErr = attempt(n, n > 0)
				if lastErr == nil {
					break
				}
				// Every failure — injected crash or surfaced disk
				// fault — is a legal interleaving; recovery must absorb
				// it on a later attempt.
				t.Logf("attempt %d: %v", n, lastErr)
			}
			if lastErr != nil {
				t.Fatalf("no convergence after %d attempts: %v (faults injected: %d)",
					maxAttempts, lastErr, ffs.Injected())
			}
			checkRun(t, fmt.Sprintf("seed %d", seed), ref, run)
		})
	}
}

// TestCorruptWALSegmentRecovered pins the WAL half of the fallback
// contract: a flipped bit in a retained WAL segment's preamble must not
// make the directory unrecoverable. Replay stops at the corrupt segment as
// if the log ended there, the source re-delivers the tail, and the skipped
// segment is reported as a fallback.
func TestCorruptWALSegmentRecovered(t *testing.T) {
	cfg, spec, ref := durabilityCfg(t)
	h, err := scenario.DefaultHarness()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	crash := cfg
	crash.CheckpointDir = dir
	crash.SnapshotEveryDays = 7
	fired := 0
	crash.FaultHook = func(p stream.FaultPoint) error {
		if p == stream.PointSnapshotCommitted {
			fired++
			if fired == 2 {
				return errInjected
			}
		}
		return nil
	}
	if _, err := workload.ExecuteSource(crash, spec.Source(h.Dataset)); !errors.Is(err, errInjected) {
		t.Fatalf("crash run: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wals []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".log") {
			wals = append(wals, e.Name())
		}
	}
	if len(wals) == 0 {
		t.Fatal("crash left no WAL segments to corrupt")
	}
	sort.Strings(wals)
	path := filepath.Join(dir, wals[len(wals)-1])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	resume := cfg
	resume.CheckpointDir = dir
	resume.SnapshotEveryDays = 7
	resume.Resume = true
	run, err := workload.ExecuteSource(resume, spec.Source(h.Dataset))
	if err != nil {
		t.Fatalf("resume over corrupt wal segment: %v", err)
	}
	checkRun(t, "corrupt wal resume", ref, run)
	if run.Durability.RecoveryFallbacks == 0 {
		t.Fatal("recovery skipped a corrupt WAL segment but reported no fallbacks")
	}
}

// countingSource counts the admissions a resume fires before it asks its
// source for the first event: what recovery restored from the directory.
type countingSource struct {
	dataset.Source
	admitted, beforeNext int
	asked                bool
}

func (c *countingSource) Next() (events.Event, bool) {
	if !c.asked {
		c.asked, c.beforeNext = true, c.admitted
	}
	return c.Source.Next()
}

// TestCorruptCoveredWALSegmentCostsNothing fences a fault in a WAL segment
// that the chain already covers: recovery never opens it. The crash leaves
// base 1, deltas 2–5 and WAL segments 1–5; segment 1 gets a flipped
// preamble byte. Resumed, the corrupted directory restores exactly what an
// untouched copy restores — the same admissions before the source's first
// event, with no fallback — and both reach the reference run.
func TestCorruptCoveredWALSegmentCostsNothing(t *testing.T) {
	cfg, spec, ref := durabilityCfg(t)
	h, err := scenario.DefaultHarness()
	if err != nil {
		t.Fatal(err)
	}
	durable := func(dir string) workload.Config {
		run := cfg
		run.CheckpointDir = dir
		run.SnapshotEveryDays = 7
		run.BaseEveryDeltas = 8
		run.GroupCommitEvents = 16
		return run
	}
	dir, clean := t.TempDir(), t.TempDir()
	crash := durable(dir)
	commits := 0
	crash.FaultHook = func(p stream.FaultPoint) error {
		if p == stream.PointSnapshotCommitted {
			if commits++; commits == 4 {
				return errInjected
			}
		}
		return nil
	}
	if _, err := workload.ExecuteSource(crash, spec.Source(h.Dataset)); !errors.Is(err, errInjected) {
		t.Fatalf("crash run: %v", err)
	}
	var names []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"base-00000001.ckpt", "delta-00000002.ckpt", "delta-00000003.ckpt",
		"delta-00000004.ckpt", "delta-00000005.ckpt", "wal-00000001.log", "wal-00000002.log",
		"wal-00000003.log", "wal-00000004.log", "wal-00000005.log"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("crash left %v, want %v", names, want)
	}
	if err := os.CopyFS(clean, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal-00000001.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	resume := func(dir string) (*workload.Run, int) {
		t.Helper()
		src := &countingSource{Source: spec.Source(h.Dataset)}
		run := durable(dir)
		run.Resume = true
		run.AdmitObserver = func(events.Event, bool) { src.admitted++ }
		got, err := workload.ExecuteSource(run, src)
		if err != nil {
			t.Fatalf("resume of %s: %v", dir, err)
		}
		checkRun(t, "resume of "+dir, ref, got)
		if got.Durability.RecoveryFallbacks != 0 {
			t.Errorf("resume of %s took %d fallbacks", dir, got.Durability.RecoveryFallbacks)
		}
		return got, src.beforeNext
	}
	_, untouched := resume(clean)
	_, corrupted := resume(dir)
	if untouched == 0 || corrupted != untouched {
		t.Fatalf("resume restored %d admissions from the corrupted directory, %d from the untouched copy",
			corrupted, untouched)
	}
}

// TestResumeRemovesStagingFiles plants the staging files a process killed
// mid-write leaves behind in a crashed directory: the resumed run removes
// them before it writes, and still reaches the reference run.
func TestResumeRemovesStagingFiles(t *testing.T) {
	cfg, spec, ref := durabilityCfg(t)
	h, err := scenario.DefaultHarness()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	crash := cfg
	crash.CheckpointDir = dir
	crash.SnapshotEveryDays = 7
	commits := 0
	crash.FaultHook = func(p stream.FaultPoint) error {
		if p == stream.PointSnapshotCommitted {
			if commits++; commits == 2 {
				return errInjected
			}
		}
		return nil
	}
	if _, err := workload.ExecuteSource(crash, spec.Source(h.Dataset)); !errors.Is(err, errInjected) {
		t.Fatalf("crash run: %v", err)
	}
	staged := []string{"base-00000099.ckpt.tmp", "delta-00000098.ckpt.tmp"}
	for _, name := range staged {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half a generation"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	resume := cfg
	resume.CheckpointDir = dir
	resume.SnapshotEveryDays = 7
	resume.Resume = true
	run, err := workload.ExecuteSource(resume, spec.Source(h.Dataset))
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, "resume over staging files", ref, run)
	for _, name := range staged {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the resumed run (%v)", name, err)
		}
	}
}

// TestRecoveryFallbackReported pins the telemetry half of the contract
// deterministically: corrupt the newest generation on disk after a crash
// and the resumed run must both converge to the reference and report the
// fallback it took in Run.Durability.RecoveryFallbacks.
func TestRecoveryFallbackReported(t *testing.T) {
	cfg, spec, ref := durabilityCfg(t)
	h, err := scenario.DefaultHarness()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	crash := cfg
	crash.CheckpointDir = dir
	crash.SnapshotEveryDays = 7
	crash.BaseEveryDeltas = 4
	fired := 0
	crash.FaultHook = func(p stream.FaultPoint) error {
		if p == stream.PointSnapshotCommitted {
			fired++
			if fired == 3 {
				return errInjected
			}
		}
		return nil
	}
	if _, err := workload.ExecuteSource(crash, spec.Source(h.Dataset)); !errors.Is(err, errInjected) {
		t.Fatalf("crash run: %v", err)
	}

	// Flip a bit in every non-initial generation payload: recovery must
	// refuse them all, fall back to what remains, and say so.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".ckpt") || name == "base-00000001.ckpt" {
			continue
		}
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 1
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("crash left no generations beyond the initial base to corrupt")
	}

	resume := cfg
	resume.CheckpointDir = dir
	resume.SnapshotEveryDays = 7
	resume.BaseEveryDeltas = 4
	resume.Resume = true
	run, err := workload.ExecuteSource(resume, spec.Source(h.Dataset))
	if err != nil {
		t.Fatalf("resume over corrupt generations: %v", err)
	}
	checkRun(t, "fallback resume", ref, run)
	if run.Durability.RecoveryFallbacks == 0 {
		t.Fatalf("recovery skipped %d corrupt generations but reported no fallbacks", corrupted)
	}
}

// TestDurabilityStatsSurviveCrash pins that the durability telemetry is
// state of the run, not of the incarnation: it rides in every generation's
// head, so a crash→resume reports the same capture, compaction and
// group-commit counts as the run that never crashed. Each crash lands on the
// first event after a cadence tick: the fourth, whose delta is not
// compacted, and the third, whose delta is — its compaction is still in
// flight at the crash and lands while Serve winds down, but the day clock
// counted it when it decided it, so the head the resumed run starts from
// already carries it. The resumed run continues the compaction cadence from
// the chain length on disk.
func TestDurabilityStatsSurviveCrash(t *testing.T) {
	cfg, spec, ref := durabilityCfg(t)
	h, err := scenario.DefaultHarness()
	if err != nil {
		t.Fatal(err)
	}
	durable := func(dir string) workload.Config {
		run := cfg
		run.CheckpointDir = dir
		run.SnapshotEveryDays = 7
		run.BaseEveryDeltas = 3
		run.GroupCommitEvents = 64
		return run
	}
	whole, err := workload.ExecuteSource(durable(t.TempDir()), spec.Source(h.Dataset))
	if err != nil {
		t.Fatal(err)
	}
	want := whole.Durability
	if want.SnapshotCaptures < 6 || want.BaseCompactions < 2 || want.GroupCommits == 0 {
		t.Fatalf("uncrashed run exercises too little: %+v", want)
	}

	for _, tick := range []int{4, 3} {
		dir := t.TempDir()
		crash := durable(dir)
		ticks := 0
		crash.FaultHook = func(p stream.FaultPoint) error {
			switch {
			case p == stream.PointDeltaCaptured:
				ticks++
			case p == stream.PointEventIngested && ticks == tick:
				return errInjected
			}
			return nil
		}
		if _, err := workload.ExecuteSource(crash, spec.Source(h.Dataset)); !errors.Is(err, errInjected) {
			t.Fatalf("crash after tick %d: %v", tick, err)
		}
		resume := durable(dir)
		resume.Resume = true
		run, err := workload.ExecuteSource(resume, spec.Source(h.Dataset))
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, fmt.Sprintf("stats resume after tick %d", tick), ref, run)
		got := run.Durability
		if got.SnapshotCaptures != want.SnapshotCaptures || got.BaseCompactions != want.BaseCompactions ||
			got.GroupCommits != want.GroupCommits {
			t.Fatalf("resumed after tick %d, the run reports captures/compactions/group commits %d/%d/%d, uncrashed %d/%d/%d",
				tick, got.SnapshotCaptures, got.BaseCompactions, got.GroupCommits,
				want.SnapshotCaptures, want.BaseCompactions, want.GroupCommits)
		}
	}
}

// failCompactionFS stages every base after the run's first through a
// FaultFS whose whole budget is one short write: the run's first base
// compaction fails its write, and every write after it lands.
type failCompactionFS struct {
	checkpoint.FS
	faults *checkpoint.FaultFS
	bases  atomic.Int32
}

func (f *failCompactionFS) OpenFile(name string, flag int, perm os.FileMode) (checkpoint.File, error) {
	base := filepath.Base(name)
	if strings.HasPrefix(base, "base-") && strings.HasSuffix(base, ".tmp") && f.bases.Add(1) > 1 {
		return f.faults.OpenFile(name, flag, perm)
	}
	return f.FS.OpenFile(name, flag, perm)
}

// TestServeLeavesNoGoroutines pins that Serve returns only once the
// snapshot writer and the WAL syncer are gone, on every path: completion,
// an injected crash at a delta capture, at a compaction decision and while
// a compaction is in flight — which lands before Serve returns — and a
// compaction whose base write fails. That failure surfaces
// as Serve's error, and a resume converges to the reference run.
func TestServeLeavesNoGoroutines(t *testing.T) {
	cfg, spec, ref := durabilityCfg(t)
	h, err := scenario.DefaultHarness()
	if err != nil {
		t.Fatal(err)
	}
	durable := func(dir string) workload.Config {
		run := cfg
		run.CheckpointDir = dir
		run.SnapshotEveryDays = 7
		run.BaseEveryDeltas = 3
		run.GroupCommitEvents = 64
		return run
	}
	// serve runs one Serve and then checks that every goroutine it started
	// is gone. landed, when set, runs first, before a goroutine left behind
	// could finish its work.
	serve := func(label string, run workload.Config, landed func()) (*workload.Run, error) {
		t.Helper()
		before := runtime.NumGoroutine()
		got, err := workload.ExecuteSource(run, spec.Source(h.Dataset))
		if landed != nil {
			landed()
		}
		// A goroutine that has signalled its WaitGroup may still be on its
		// way out.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines after Serve returned, %d before:\n%s",
				label, n, before, buf[:runtime.Stack(buf, true)])
		}
		return got, err
	}
	// nth crashes at the n-th firing of point; after crashes at the first
	// event after the n-th cadence tick.
	nth := func(point stream.FaultPoint, n int) stream.FaultHook {
		return func(p stream.FaultPoint) error {
			if p == point {
				if n--; n == 0 {
					return errInjected
				}
			}
			return nil
		}
	}
	after := func(n int) stream.FaultHook {
		return func(p stream.FaultPoint) error {
			switch {
			case p == stream.PointDeltaCaptured:
				n--
			case p == stream.PointEventIngested && n == 0:
				return errInjected
			}
			return nil
		}
	}

	if _, err := serve("completion", durable(t.TempDir()), nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		hook  stream.FaultHook
		// inFlight: a compaction was in flight at the crash, so once Serve
		// returned the chain on disk must be the base it wrote.
		inFlight bool
	}{
		{"crash at a delta capture", nth(stream.PointDeltaCaptured, 2), false},
		{"crash at a compaction decision", nth(stream.PointBaseCompacted, 2), false},
		{"crash after a compacted tick", after(3), true},
	} {
		dir := t.TempDir()
		crash := durable(dir)
		crash.FaultHook = c.hook
		var landed func()
		if c.inFlight {
			landed = func() {
				chain, _, err := checkpoint.NewStore(dir, nil).LoadChain()
				if err != nil || chain == nil || chain.Deltas != 0 {
					t.Errorf("%s: the chain on disk is not a compacted base alone (%v)", c.label, err)
				}
			}
		}
		if _, err := serve(c.label, crash, landed); !errors.Is(err, errInjected) {
			t.Fatalf("%s: %v", c.label, err)
		}
	}

	dir := t.TempDir()
	failing := durable(dir)
	failing.DurableFS = &failCompactionFS{
		FS:     checkpoint.OsFS{},
		faults: checkpoint.NewFaultFS(nil, checkpoint.FaultSpec{Seed: 1, MaxFaults: 1, ShortWrite: 1}),
	}
	if _, err := serve("failed compaction", failing, nil); err == nil || !strings.Contains(err.Error(), "injected short write") {
		t.Fatalf("failed compaction surfaced as %v, want the short write", err)
	}
	resume := durable(dir)
	resume.Resume = true
	run, err := serve("resume after the failed compaction", resume, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, "resume after the failed compaction", ref, run)
}
