package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

// ack_test.go pins the acknowledgement semantics of the serving contract:
// when a 200 may be sent, which admission decisions survive recovery, and
// which request shapes the control endpoints must refuse.

// tinyConv builds a conversion the tiny server accepts.
func tinyConv(dev uint64, day int, id uint64) events.Event {
	return events.Event{
		ID: events.EventID(id), Kind: events.KindConversion,
		Device: events.DeviceID(dev), Day: day,
		Advertiser: events.Intern("shop.example"), Product: events.Intern("p0"), Value: 2,
	}
}

// postOutcome carries one raw POST /v1/events result across goroutines
// (the concurrent tests can't use the harness client's t.Fatalf helpers
// off the test goroutine).
type postOutcome struct {
	status int
	resp   serve.IngestResponse
	code   string // a refusal's ErrorResponse.Code
	err    error
}

// postAsync posts one batch once, without retrying, on its own goroutine.
func postAsync(ts *testServer, evs []events.Event) <-chan postOutcome {
	wire := make([]serve.EventWire, len(evs))
	for i, ev := range evs {
		wire[i] = serve.WireFromEvent(ev)
	}
	body, _ := json.Marshal(serve.IngestRequest{Events: wire})
	ch := make(chan postOutcome, 1)
	go func() {
		var out postOutcome
		resp, err := ts.http.Client().Post(
			ts.http.URL+"/v1/events", "application/json", bytes.NewReader(body))
		if err != nil {
			out.err = err
			ch <- out
			return
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
		switch {
		case err != nil:
			out.err = err
		case out.status == http.StatusOK:
			out.err = json.Unmarshal(raw, &out.resp)
		default:
			var er serve.ErrorResponse
			out.err = json.Unmarshal(raw, &er)
			out.code = er.Code
		}
		ch <- out
	}()
	return ch
}

// wedgeIngest returns a FaultHook that parks the service at its nth
// PointEventIngested — after that event's WAL append, before its
// admission observer — until release is closed, and then returns err.
func wedgeIngest(n int, err error) (hook stream.FaultHook, reached, release chan struct{}) {
	reached, release = make(chan struct{}), make(chan struct{})
	seen := 0 // the hook runs on the service goroutine only
	hook = func(p stream.FaultPoint) error {
		if p != stream.PointEventIngested {
			return nil
		}
		if seen++; seen != n {
			return nil
		}
		close(reached)
		<-release
		return err
	}
	return hook, reached, release
}

// wedgedServer boots a tiny server whose service runs hook and returns
// it with unwedge, which closes release once. unwedge also runs on any exit
// path (before the httptest server's Close), so a failing assertion never
// leaves a handler parked.
func wedgedServer(t *testing.T, hook stream.FaultHook, release chan struct{}) (ts *testServer, unwedge func()) {
	meta := tinyMeta()
	meta.Advertisers = []dataset.Advertiser{tinyAdvertiser()}
	ts = newTestServer(t, serve.Config{
		Scenario: workload.Config{EpsilonG: 1, Seed: 1, Parallelism: 1, FaultHook: hook},
		Meta:     meta,
	})
	var once sync.Once
	unwedge = func() { once.Do(func() { close(release) }) }
	t.Cleanup(unwedge)
	return ts, unwedge
}

// awaitOutcome waits for a POST's outcome, failing the test after 30s.
func awaitOutcome(t *testing.T, name string, ch <-chan postOutcome) postOutcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(30 * time.Second):
		t.Fatalf("%s batch never answered", name)
		return postOutcome{}
	}
}

// TestDuplicateRetryWaitsForApply is the concurrent-retry window the
// sequential recovery tests never open: a client times out and re-sends a
// batch whose original delivery is still in flight. The retry
// deduplicates against the enqueue-time cursor, but its 200 must not be
// sent until the original is WAL-appended and applied — otherwise a crash
// loses events the retry just acknowledged. The consumer is wedged at
// PointEventIngested (after the WAL append, before the admission
// observer), which holds the applied ordinal back while the dedupe cursor
// already covers the event.
func TestDuplicateRetryWaitsForApply(t *testing.T) {
	release := make(chan struct{})
	reached := make(chan struct{})
	var once atomic.Bool
	scenario := workload.Config{
		EpsilonG: 1, Seed: 1, Parallelism: 1,
		FaultHook: func(p stream.FaultPoint) error {
			if p == stream.PointEventIngested && once.CompareAndSwap(false, true) {
				close(reached)
				<-release
			}
			return nil
		},
	}
	meta := tinyMeta()
	meta.Advertisers = []dataset.Advertiser{tinyAdvertiser()}
	ts := newTestServer(t, serve.Config{Scenario: scenario, Meta: meta})
	// Unwedge on any exit path (registered after newTestServer, so it runs
	// before the httptest server's Close): a failing assertion must not
	// leave a parked handler deadlocking the cleanup.
	var unwedgeOnce sync.Once
	unwedge := func() { unwedgeOnce.Do(func() { close(release) }) }
	t.Cleanup(unwedge)

	body, _ := json.Marshal(serve.IngestRequest{
		Events: []serve.EventWire{serve.WireFromEvent(tinyConv(7, 0, 1))},
	})
	post := func() <-chan postOutcome {
		ch := make(chan postOutcome, 1)
		go func() {
			var out postOutcome
			resp, err := ts.http.Client().Post(
				ts.http.URL+"/v1/events", "application/json", bytes.NewReader(body))
			if err != nil {
				out.err = err
			} else {
				out.status = resp.StatusCode
				out.err = json.NewDecoder(resp.Body).Decode(&out.resp)
				resp.Body.Close()
			}
			ch <- out
		}()
		return ch
	}

	first := post()
	select {
	case <-reached:
	case out := <-first:
		t.Fatalf("original batch returned (%+v) before the consumer reached the wedge", out)
	case <-time.After(30 * time.Second):
		t.Fatalf("consumer never reached the ingest wedge")
	}

	// The original is now applied-but-unacknowledged and the wedge holds
	// the admission observer back. A verbatim retry is a duplicate-only
	// batch; before duplicates waited for apply it returned 200 immediately.
	retry := post()
	select {
	case out := <-retry:
		t.Fatalf("duplicate-only retry acknowledged (%+v) while the original was not applied", out)
	case out := <-first:
		t.Fatalf("original batch acknowledged (%+v) while wedged before its admission observer", out)
	case <-time.After(150 * time.Millisecond):
	}

	unwedge()
	for name, ch := range map[string]<-chan postOutcome{"original": first, "retry": retry} {
		select {
		case out := <-ch:
			if out.err != nil || out.status != http.StatusOK {
				t.Fatalf("%s batch: status %d err %v", name, out.status, out.err)
			}
			wantAcc, wantDup := 1, 0
			if name == "retry" {
				wantAcc, wantDup = 0, 1
			}
			if out.resp.Accepted != wantAcc || out.resp.Duplicates != wantDup {
				t.Fatalf("%s batch: accepted %d duplicates %d, want %d/%d",
					name, out.resp.Accepted, out.resp.Duplicates, wantAcc, wantDup)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s batch never completed after the wedge released", name)
		}
	}
	if _, err := tsShutdown(ts); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestAckWaitsForLastAdmission pins a batch's 200 to its last admission
// applying, not its first or any other. The batch spans three devices and
// the service is wedged at its last event: WAL-appended, not yet observed.
// No 200 may arrive until the wedge releases.
func TestAckWaitsForLastAdmission(t *testing.T) {
	batch := []events.Event{tinyConv(1, 0, 1), tinyConv(2, 0, 2), tinyConv(1, 0, 3), tinyConv(3, 0, 4)}
	hook, reached, release := wedgeIngest(len(batch), nil)
	ts, unwedge := wedgedServer(t, hook, release)

	ack := postAsync(ts, batch)
	select {
	case <-reached:
	case out := <-ack:
		t.Fatalf("batch answered (%+v) before the service reached its last event", out)
	case <-time.After(30 * time.Second):
		t.Fatalf("service never reached the batch's last event")
	}
	select {
	case out := <-ack:
		t.Fatalf("batch answered (%+v) while its last admission was wedged before the observer", out)
	case <-time.After(150 * time.Millisecond):
	}

	unwedge()
	out := awaitOutcome(t, "wedged", ack)
	if out.err != nil || out.status != http.StatusOK || out.resp.Accepted != len(batch) || out.resp.Duplicates != 0 {
		t.Fatalf("after release: status %d %+v err %v, want 200 with %d accepted", out.status, out.resp, out.err, len(batch))
	}
	if _, err := tsShutdown(ts); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestParkedAckIs503WhenServiceStops: a handler parked on its ack when
// the service stops answers 503 unless its own batch applied first. The
// hook fails the service at the in-flight batch's last event, after its
// WAL append and before its admission observer, so the front door never
// saw that batch apply and a 200 would be a false promise. The batch
// applied ahead of it keeps its 200.
func TestParkedAckIs503WhenServiceStops(t *testing.T) {
	applied := []events.Event{tinyConv(1, 0, 1), tinyConv(2, 0, 2)}
	inFlight := []events.Event{tinyConv(1, 0, 3), tinyConv(2, 0, 4), tinyConv(3, 0, 5)}
	stop := errors.New("injected stop")
	hook, reached, release := wedgeIngest(len(applied)+len(inFlight), stop)
	ts, unwedge := wedgedServer(t, hook, release)

	if out := awaitOutcome(t, "first", postAsync(ts, applied)); out.err != nil || out.status != http.StatusOK {
		t.Fatalf("batch applied before the stop: status %d err %v, want 200", out.status, out.err)
	}
	ack := postAsync(ts, inFlight)
	select {
	case <-reached:
	case out := <-ack:
		t.Fatalf("in-flight batch answered (%+v) before the service reached its last event", out)
	case <-time.After(30 * time.Second):
		t.Fatalf("service never reached the in-flight batch's last event")
	}
	unwedge()
	out := awaitOutcome(t, "in-flight", ack)
	if out.err != nil || out.status != http.StatusServiceUnavailable || out.code != serve.CodeUnavailable {
		t.Fatalf("in-flight batch when the service stopped: status %d code %q err %v, want 503 %q",
			out.status, out.code, out.err, serve.CodeUnavailable)
	}
	if _, err := waitDone(t, ts.srv); !errors.Is(err, stop) {
		t.Fatalf("run ended with %v, want the injected stop", err)
	}
}

// TestLiveAdmissionAllocatesNothing fences the ack path's per-event cost:
// a live admission touches no per-device state and allocates nothing. A
// batch's one allocation is the done channel its push makes.
func TestLiveAdmissionAllocatesNothing(t *testing.T) {
	meta := tinyMeta()
	meta.Advertisers = []dataset.Advertiser{tinyAdvertiser()}
	ts := newTestServer(t, serve.Config{
		Scenario: workload.Config{EpsilonG: 1, Seed: 1, Parallelism: 1},
		Meta:     meta,
	})
	// The first event seals the run and opens the ready latch, so every
	// admission after it is live.
	if st, acc, _ := newClient(t, ts).sendBatch([]events.Event{tinyConv(1, 0, 1)}); st != http.StatusOK || acc != 1 {
		t.Fatalf("seeding event: status %d accepted %d", st, acc)
	}
	const n = 512
	ev := tinyConv(2, 0, 1)
	unacked := 0
	allocs := testing.AllocsPerRun(100, func() {
		select {
		case <-ts.srv.AdmitLive(ev, n):
		default:
			unacked++
		}
	})
	if unacked != 0 {
		t.Fatalf("%d batches left unacknowledged after all their admissions applied", unacked)
	}
	if allocs-1 != 0 {
		t.Fatalf("a %d-event batch allocates %v times beyond its done channel, want 0", n, allocs-1)
	}
	if _, err := tsShutdown(ts); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestLateDropCursorSurvivesSuspendResume pins the hardest admission
// durability case: a device whose NEWEST admission was a late drop. The
// event never reaches the store, and a suspend subsumes the WAL into a
// final base snapshot, so the only carrier of that admission decision is
// the snapshot's drop mark. A resumed server must reject the retry as a
// duplicate — re-admitting and re-dropping it would double-count
// EventsIngested/EventsDropped versus the uncrashed run. Also pins that a
// suspended (resumable) run never reports results Complete.
func TestLateDropCursorSurvivesSuspendResume(t *testing.T) {
	dir := t.TempDir()
	scenario := workload.Config{
		EpsilonG: 1, Seed: 1, Parallelism: 1,
		CheckpointDir: dir, SnapshotEveryDays: 3, GroupCommitEvents: 1,
	}
	meta := tinyMeta()
	meta.Advertisers = []dataset.Advertiser{tinyAdvertiser()}
	tsA := newTestServer(t, serve.Config{Scenario: scenario, Meta: meta})
	cA := newClient(t, tsA)

	// Advance the day clock to day 2, then land device 1's second event on
	// day 1: admitted at the front door, late-dropped by the service. That
	// drop is device 1's admission high-water mark from here on.
	late := tinyConv(1, 1, 2)
	for i, ev := range []events.Event{tinyConv(1, 0, 1), tinyConv(2, 2, 1), late} {
		if st, acc, dup := cA.sendBatch([]events.Event{ev}); st != http.StatusOK || acc != 1 || dup != 0 {
			t.Fatalf("phase 1 event %d: status %d accepted %d duplicates %d", i, st, acc, dup)
		}
	}
	if st := tsA.srv.StatsSnapshot(); st.LateDropped != 1 {
		t.Fatalf("late drops counted %d, want 1", st.LateDropped)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	runA, err := tsA.srv.Shutdown(ctx, false /* suspend */)
	if err != nil {
		t.Fatalf("suspend: %v", err)
	}
	if runA == nil || runA.EventsIngested != 3 || runA.EventsDropped != 1 {
		t.Fatalf("suspended run books %+v, want 3 ingested / 1 dropped", runA)
	}
	// The suspended run ended with a nil error, but it is resumable: a
	// poller trusting Complete as its stop condition must keep polling.
	if rr := cA.results(""); rr.Complete {
		t.Fatalf("suspended run reports results Complete")
	}

	resumed := scenario
	resumed.Resume = true
	tsB := newTestServer(t, serve.Config{Scenario: resumed, Meta: meta})
	cB := newClient(t, tsB)
	if st, acc, dup := cB.sendBatch([]events.Event{late}); st != http.StatusOK || acc != 0 || dup != 1 {
		t.Fatalf("late-drop retry after resume: status %d accepted %d duplicates %d, want 200/0/1",
			st, acc, dup)
	}
	if sr := cB.shutdown(true); sr.State != "done" {
		t.Fatalf("final shutdown state %q: %s", sr.State, sr.Error)
	}
	runB, runErr := waitDone(t, tsB.srv)
	if runErr != nil {
		t.Fatalf("resumed run: %v", runErr)
	}
	if runB.EventsIngested != 3 || runB.EventsDropped != 1 {
		t.Fatalf("resumed run books %d ingested / %d dropped, want 3/1 (late drop re-admitted)",
			runB.EventsIngested, runB.EventsDropped)
	}
	if rr := cB.results(""); !rr.Complete {
		t.Fatalf("finished run must report results Complete")
	}
}

// TestShutdownBodyValidation: a malformed shutdown body is refused with a
// 400 before the irreversible drain — a corrupted suspend request must
// not silently close out a run that was meant to stay resumable. Only a
// genuinely empty body selects the final-by-default path.
func TestShutdownBodyValidation(t *testing.T) {
	meta := tinyMeta()
	meta.Advertisers = []dataset.Advertiser{tinyAdvertiser()}
	ts := newTestServer(t, serve.Config{
		Scenario: workload.Config{EpsilonG: 1, Seed: 1, Parallelism: 1},
		Meta:     meta,
	})
	c := newClient(t, ts)
	if st, acc, _ := c.sendBatch([]events.Event{tinyConv(1, 0, 1)}); st != http.StatusOK || acc != 1 {
		t.Fatalf("seeding event: status %d accepted %d", st, acc)
	}

	for _, tc := range []struct{ name, body string }{
		{"truncated", `{"final":`},
		{"wrong-type", `{"final":"yes"}`},
		{"not-an-object", `[]`},
	} {
		status, resp := c.do(http.MethodPost, "/v1/shutdown", []byte(tc.body))
		if status != http.StatusBadRequest {
			t.Fatalf("%s body: status %d, want 400 (%s)", tc.name, status, resp)
		}
		var er serve.ErrorResponse
		_ = json.Unmarshal(resp, &er)
		if er.Code != serve.CodeMalformedJSON {
			t.Fatalf("%s body: code %q, want %q", tc.name, er.Code, serve.CodeMalformedJSON)
		}
	}
	if st := ts.srv.StatsSnapshot(); st.State != "serving" {
		t.Fatalf("state %q after refused shutdowns, want serving", st.State)
	}

	status, resp := c.do(http.MethodPost, "/v1/shutdown", nil)
	if status != http.StatusOK {
		t.Fatalf("empty-body shutdown: status %d (%s)", status, resp)
	}
	var sr serve.ShutdownResponse
	if err := json.Unmarshal(resp, &sr); err != nil {
		t.Fatalf("parsing shutdown response: %v", err)
	}
	if sr.State != "done" || sr.EventsIngested != 1 {
		t.Fatalf("empty-body shutdown: %+v, want done with 1 event", sr)
	}
}

// TestResultsAfterValidation: the results cursor must be a whole integer —
// trailing garbage ("5x") is a malformed cursor to reject, not a 5 to
// silently resume from.
func TestResultsAfterValidation(t *testing.T) {
	ts := newTestServer(t, serve.Config{
		Scenario: workload.Config{EpsilonG: 1, Seed: 1, Parallelism: 1},
		Meta:     tinyMeta(),
	})
	c := newClient(t, ts)

	for _, bad := range []string{"5x", "abc", "1.5", "0x10"} {
		status, resp := c.do(http.MethodGet, "/v1/results?after="+bad, nil)
		if status != http.StatusBadRequest {
			t.Fatalf("after=%s: status %d, want 400 (%s)", bad, status, resp)
		}
		var er serve.ErrorResponse
		_ = json.Unmarshal(resp, &er)
		if er.Code != serve.CodeBadQuery {
			t.Fatalf("after=%s: code %q, want %q", bad, er.Code, serve.CodeBadQuery)
		}
	}
	for _, ok := range []string{"7", "-1", "0"} {
		if status, resp := c.do(http.MethodGet, "/v1/results?after="+ok, nil); status != http.StatusOK {
			t.Fatalf("after=%s: status %d, want 200 (%s)", ok, status, resp)
		}
	}
	if _, err := tsShutdown(ts); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
