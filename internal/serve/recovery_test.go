package serve_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/serve"
	"repro/internal/stream"
)

// TestGracefulShutdownResume is the drain contract: suspending a server
// mid-trace (the SIGTERM path) drains the bounded ingest queue through
// the service, flushes the group-commit syncer, and leaves a checkpoint
// directory a second server resumes from — and the stitched-together run
// is bit-identical to the batch reference. The suspend lands mid-day on
// purpose: the service must not flush the in-progress day on suspend
// (its remaining events arrive after resume).
func TestGracefulShutdownResume(t *testing.T) {
	ref, err := figures.BatchRef("cookie-monster")
	if err != nil {
		t.Fatalf("batch reference: %v", err)
	}
	w, err := figures.ByName("cookie-monster")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := w.Config()
	if err != nil {
		t.Fatal(err)
	}
	ds := cfg.Dataset
	dir := t.TempDir()

	scenario := scenarioForServing(cfg)
	scenario.CheckpointDir = dir
	scenario.SnapshotEveryDays = 3
	scenario.GroupCommitEvents = 4

	// Phase 1: fresh server, register over the API, send the first ~half
	// of the trace (cut mid-batch, so it lands mid-day), then suspend.
	metaA := ds.Meta()
	metaA.Advertisers = nil
	tsA := newTestServer(t, serve.Config{Scenario: scenario, Meta: metaA})
	cA := newClient(t, tsA)
	cA.register(ds.Advertisers)

	evs := orderedEvents(ds)
	cut := len(evs)/2 + 17
	accepted, duplicates, failedAt := cA.sendOrdered(evs[:cut], 128)
	if failedAt >= 0 || accepted != cut || duplicates != 0 {
		t.Fatalf("phase 1 send: accepted %d dup %d failedAt %d, want %d/0/-1",
			accepted, duplicates, failedAt, cut)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	runA, err := tsA.srv.Shutdown(ctx, false /* suspend */)
	if err != nil {
		t.Fatalf("suspend: %v", err)
	}
	if runA == nil || runA.EventsIngested != cut {
		t.Fatalf("suspended run ingested %v events, want %d", runA, cut)
	}
	releasedA := len(runA.Results)
	if releasedA == 0 {
		t.Fatalf("no result released before the suspend: the results cursor goes unchecked")
	}
	cA.checkResultsCursor(releasedA)

	// Phase 2: resume from the checkpoint directory. Resume requires the
	// querier set up front; registration order must match phase 1.
	resumed := scenario
	resumed.Resume = true
	metaB := ds.Meta() // advertisers preset
	tsB := newTestServer(t, serve.Config{Scenario: resumed, Meta: metaB})
	cB := newClient(t, tsB)

	// Re-send a tail of already-covered events first: recovery must have
	// rebuilt the (device, seq) cursors, so these are duplicate-rejected,
	// not double-ingested. (sendOrdered retries through the recovery 503s.)
	overlap := 64
	_, dup, failedAt := cB.sendOrdered(evs[cut-overlap:cut], 32)
	if failedAt >= 0 {
		t.Fatalf("overlap re-send failed at offset %d", failedAt)
	}
	if dup != overlap {
		t.Fatalf("overlap re-send: %d duplicates, want %d", dup, overlap)
	}
	// The restored results sit at the positions they were released at, so
	// a poller's cursor from before the suspend is still good.
	cB.checkResultsCursor(releasedA)

	accepted, duplicates, failedAt = cB.sendOrdered(evs[cut:], 128)
	if failedAt >= 0 || accepted != len(evs)-cut || duplicates != 0 {
		t.Fatalf("phase 2 send: accepted %d dup %d failedAt %d, want %d/0/-1",
			accepted, duplicates, failedAt, len(evs)-cut)
	}
	if sr := cB.shutdown(true); sr.State != "done" {
		t.Fatalf("final shutdown state %q: %s", sr.State, sr.Error)
	}
	runB, runErr := waitDone(t, tsB.srv)
	got := mustDigest(t, runB, runErr, "resumed run")
	cB.checkResultsCursor(len(runB.Results))
	if want := ref.CanonicalDigest(); got != want {
		t.Fatalf("resumed digest %s != batch reference %s", got, want)
	}
	if st := tsB.srv.StatsSnapshot(); st.DuplicatesRejected != int64(overlap) {
		t.Fatalf("resumed server rejected %d duplicates, want %d", st.DuplicatesRejected, overlap)
	}
}

// TestCrashBetweenWALAppendAndResponse injects a crash at the exact
// regime the idempotency design exists for: the service has appended an
// event to the WAL (PointEventIngested) but the client never receives the
// acknowledgement. The client then replays the ENTIRE trace against a
// resumed server: everything the durable state covers must be rejected as
// a duplicate, everything lost with the crash must be re-admitted, and
// the final digest must still match the batch reference bit for bit.
func TestCrashBetweenWALAppendAndResponse(t *testing.T) {
	ref, err := figures.BatchRef("cookie-monster")
	if err != nil {
		t.Fatalf("batch reference: %v", err)
	}
	w, err := figures.ByName("cookie-monster")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		groupCommit int
	}{
		// Per-event group commit: the crashed event is typically durable,
		// so its retry deduplicates. Day-boundary-only syncing: the tail
		// since the last boundary is lost and the retry re-ingests it.
		// Both must converge to the reference digest.
		{"group-commit-1", 1},
		{"no-group-commit", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := w.Config()
			if err != nil {
				t.Fatal(err)
			}
			ds := cfg.Dataset
			dir := t.TempDir()
			evs := orderedEvents(ds)

			var countdown atomic.Int64
			countdown.Store(600) // crash mid-trace, several day boundaries in
			boom := errors.New("injected crash")
			scenario := scenarioForServing(cfg)
			scenario.CheckpointDir = dir
			scenario.SnapshotEveryDays = 3
			scenario.GroupCommitEvents = tc.groupCommit
			scenario.FaultHook = func(p stream.FaultPoint) error {
				if p == stream.PointEventIngested && countdown.Add(-1) == 0 {
					return boom
				}
				return nil
			}

			metaA := ds.Meta()
			metaA.Advertisers = nil
			tsA := newTestServer(t, serve.Config{Scenario: scenario, Meta: metaA})
			cA := newClient(t, tsA)
			cA.register(ds.Advertisers)

			stopped := cA.sendOrderedAllowStop(evs, 64)
			if stopped >= len(evs) {
				t.Fatalf("server survived the whole trace; crash never fired")
			}
			if _, errA := waitDone(t, tsA.srv); errA == nil {
				t.Fatalf("crashed run reported no error")
			}

			// Recovery: resume and replay the full trace. The client does
			// not know which suffix was lost, and does not need to —
			// admission dedupe sorts it out.
			resumed := scenario
			resumed.Resume = true
			resumed.FaultHook = nil
			tsB := newTestServer(t, serve.Config{Scenario: resumed, Meta: ds.Meta()})
			cB := newClient(t, tsB)
			accepted, duplicates, failedAt := cB.sendOrdered(evs, 64)
			if failedAt >= 0 {
				t.Fatalf("replay failed at offset %d", failedAt)
			}
			if duplicates == 0 {
				t.Fatalf("full replay saw no duplicate rejections; dedupe is not engaged")
			}
			if accepted+duplicates != len(evs) {
				t.Fatalf("replay accounted %d+%d events, want %d", accepted, duplicates, len(evs))
			}
			if sr := cB.shutdown(true); sr.State != "done" {
				t.Fatalf("final shutdown state %q: %s", sr.State, sr.Error)
			}
			runB, runErr := waitDone(t, tsB.srv)
			got := mustDigest(t, runB, runErr, "recovered run")
			if want := ref.CanonicalDigest(); got != want {
				t.Fatalf("recovered digest %s != batch reference %s", got, want)
			}
			if st := tsB.srv.StatsSnapshot(); st.DuplicatesRejected != int64(duplicates) {
				t.Fatalf("telemetry counted %d duplicate rejections, responses said %d",
					st.DuplicatesRejected, duplicates)
			}
		})
	}
}

// TestCorruptCoveredSegmentKeepsAckedEvents fences a fault in a WAL segment
// the chain already covers, on the served path, where the WAL holds acked
// events no source can re-deliver. With a group commit per event, every ack
// follows its record's fsync. The crash leaves base 1, deltas 2–5 and WAL
// segments 1–5, and segment 1 gets a flipped preamble byte. Recovery never
// opens that segment: the resumed server answers every event acked before
// the crash as a duplicate, and the finished run matches the reference.
func TestCorruptCoveredSegmentKeepsAckedEvents(t *testing.T) {
	ref, err := figures.BatchRef("cookie-monster")
	if err != nil {
		t.Fatalf("batch reference: %v", err)
	}
	w, err := figures.ByName("cookie-monster")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := w.Config()
	if err != nil {
		t.Fatal(err)
	}
	ds := cfg.Dataset
	dir := t.TempDir()
	evs := orderedEvents(ds)

	boom := errors.New("injected crash")
	var commits atomic.Int64
	scenario := scenarioForServing(cfg)
	scenario.CheckpointDir = dir
	scenario.SnapshotEveryDays = 7
	scenario.BaseEveryDeltas = 8
	scenario.GroupCommitEvents = 1
	scenario.FaultHook = func(p stream.FaultPoint) error {
		if p == stream.PointSnapshotCommitted && commits.Add(1) == 4 {
			return boom
		}
		return nil
	}
	metaA := ds.Meta()
	metaA.Advertisers = nil
	tsA := newTestServer(t, serve.Config{Scenario: scenario, Meta: metaA})
	cA := newClient(t, tsA)
	cA.register(ds.Advertisers)
	acked := cA.sendOrderedAllowStop(evs, 64)
	if acked >= len(evs) {
		t.Fatalf("server survived the whole trace; crash never fired")
	}
	if _, errA := waitDone(t, tsA.srv); !errors.Is(errA, boom) {
		t.Fatalf("crashed run reported %v, want the injected crash", errA)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"base-00000001.ckpt", "delta-00000002.ckpt", "delta-00000003.ckpt",
		"delta-00000004.ckpt", "delta-00000005.ckpt", "wal-00000001.log", "wal-00000002.log",
		"wal-00000003.log", "wal-00000004.log", "wal-00000005.log"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("crash left %v, want %v", names, want)
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

	resumed := scenario
	resumed.Resume = true
	resumed.FaultHook = nil
	tsB := newTestServer(t, serve.Config{Scenario: resumed, Meta: ds.Meta()})
	cB := newClient(t, tsB)
	accepted, duplicates, failedAt := cB.sendOrdered(evs[:acked], 64)
	if failedAt >= 0 || accepted != 0 || duplicates != acked {
		t.Fatalf("re-sending the %d acked events: accepted %d dup %d failedAt %d, want 0/%d/-1",
			acked, accepted, duplicates, failedAt, acked)
	}
	accepted, duplicates, failedAt = cB.sendOrdered(evs[acked:], 64)
	if failedAt >= 0 || accepted+duplicates != len(evs)-acked {
		t.Fatalf("sending the rest: accepted %d dup %d failedAt %d, want %d in all",
			accepted, duplicates, failedAt, len(evs)-acked)
	}
	if sr := cB.shutdown(true); sr.State != "done" {
		t.Fatalf("final shutdown state %q: %s", sr.State, sr.Error)
	}
	runB, runErr := waitDone(t, tsB.srv)
	got := mustDigest(t, runB, runErr, "resumed run")
	if want := ref.CanonicalDigest(); got != want {
		t.Fatalf("resumed digest %s != batch reference %s", got, want)
	}
	if n := runB.Durability.RecoveryFallbacks; n != 0 {
		t.Fatalf("resume took %d fallbacks", n)
	}
}
