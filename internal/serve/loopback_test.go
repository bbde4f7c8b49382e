package serve_test

import (
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"testing"

	"repro/internal/events"
	"repro/internal/figures"
	"repro/internal/serve"
)

// TestLoopbackEquivalence is the serving layer's core guarantee: a run
// fed over HTTP — queriers registered through /v1/queries, the trace
// POSTed to /v1/events by a single ordered sender, the run closed out by
// /v1/shutdown — produces a Run whose canonical digest is bit-identical
// to the batch engine's reference for the same scenario, at every
// execution parallelism. The network admission path (decode, validation,
// dedupe, bounded queue, ack-after-WAL) must be invisible to the results.
func TestLoopbackEquivalence(t *testing.T) {
	for _, parallelism := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("parallel-%d", parallelism), func(t *testing.T) {
			loopbackEquivalence(t, "cookie-monster", parallelism)
		})
	}
	// The Criteo-shaped trace keeps the events of its many advertisers too
	// small to be queriers: the server must admit them and the planner
	// ignore them, as the batch engine's plan does.
	criteo, err := figures.ByName("criteo-cm")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := criteo.Config()
	if err != nil {
		t.Fatal(err)
	}
	queriers := make(map[events.Site]bool, len(cfg.Dataset.Advertisers))
	for _, adv := range cfg.Dataset.Advertisers {
		queriers[adv.Site] = true
	}
	if !slices.ContainsFunc(cfg.Dataset.Events, func(ev events.Event) bool { return !queriers[ev.Advertiser] }) {
		t.Fatal("criteo-cm has no non-querier advertiser: the case would test nothing")
	}
	for _, parallelism := range []int{1, 4} {
		t.Run(fmt.Sprintf("criteo-parallel-%d", parallelism), func(t *testing.T) {
			loopbackEquivalence(t, "criteo-cm", parallelism)
		})
	}
}

// loopbackEquivalence serves the cataloged workload's whole trace over HTTP
// and holds the run to the workload's batch reference digest.
func loopbackEquivalence(t *testing.T, workloadName string, parallelism int) {
	ref, err := figures.BatchRef(workloadName)
	if err != nil {
		t.Fatalf("batch reference: %v", err)
	}
	wantDigest := ref.CanonicalDigest()

	w, err := figures.ByName(workloadName)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := w.Config()
	if err != nil {
		t.Fatal(err)
	}
	ds := cfg.Dataset
	scenario := scenarioForServing(cfg)
	scenario.Parallelism = parallelism

	meta := ds.Meta()
	meta.Advertisers = nil // register over the API, like real queriers
	ts := newTestServer(t, serve.Config{Scenario: scenario, Meta: meta})
	c := newClient(t, ts)

	// Registration order fixes the canonical querier order, so it
	// must match the trace header — same contract as the dataset.
	c.register(ds.Advertisers)

	evs := orderedEvents(ds)
	accepted, duplicates, failedAt := c.sendOrdered(evs, 128)
	if failedAt >= 0 {
		t.Fatalf("send failed at event %d", failedAt)
	}
	if accepted != len(evs) || duplicates != 0 {
		t.Fatalf("accepted %d events (%d duplicates), want %d (0)", accepted, duplicates, len(evs))
	}

	// Close out the trace over the API and fetch the final results.
	sr := c.shutdown(true)
	if sr.State != "done" {
		t.Fatalf("shutdown state %q: %s", sr.State, sr.Error)
	}
	run, runErr := waitDone(t, ts.srv)
	got := mustDigest(t, run, runErr, "served run")
	if got != wantDigest {
		t.Fatalf("served digest %s != batch reference %s", got, wantDigest)
	}

	rr := c.results("?after=-1")
	if !rr.Complete {
		t.Fatalf("results not marked complete after final shutdown")
	}
	if len(rr.Results) != len(run.Results) {
		t.Fatalf("polled %d results, run released %d", len(rr.Results), len(run.Results))
	}
	// The querier-facing wire shape must never leak the noise-free
	// truth — spot-check the polled results carry estimates only.
	for _, res := range rr.Results {
		if res.Index < 0 || res.Batch <= 0 {
			t.Fatalf("malformed polled result: %+v", res)
		}
	}

	// Late POSTs after completion are refused, not lost silently.
	st, _ := c.do(http.MethodPost, "/v1/events", []byte(`{"events":[]}`))
	if st != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown ingest: status %d, want 503", st)
	}
}
