package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

// shedEvent builds the i-th admissible tiny-server conversion: globally
// increasing IDs on a single day keep each device's (day, id) sequence
// strictly monotonic, so none of these dedupe.
func shedEvent(i int) events.Event {
	return events.Event{
		ID:         events.EventID(i + 1),
		Kind:       events.KindConversion,
		Device:     events.DeviceID(i % 64),
		Day:        0,
		Advertiser: events.Intern("shop.example"),
		Product:    events.Intern("p0"),
		Value:      5,
	}
}

// throttledScenario is the tiny scenario with a fixed per-event apply
// cost, giving the service a controllable capacity so overload is real
// on loopback (where the natural drain is microseconds per event).
func throttledScenario(applyDelay time.Duration) workload.Config {
	return workload.Config{
		EpsilonG: 1, Seed: 1, Parallelism: 1,
		FaultHook: func(p stream.FaultPoint) error {
			if p == stream.PointEventIngested {
				time.Sleep(applyDelay)
			}
			return nil
		},
	}
}

// TestQueueDelayLive holds the queue clock to what /v1/stats promises: the
// admission→apply sojourn of every batch applied so far, visible while the
// run is still serving (shedding off — the clock does not depend on the
// gate), copied into the finished Run, and untouched by the admissions a
// resumed server replays, which no handler of that incarnation pushed.
func TestQueueDelayLive(t *testing.T) {
	const applyDelay, batch = time.Millisecond, 16
	meta := tinyMeta()
	meta.Advertisers = []dataset.Advertiser{tinyAdvertiser()}
	scenario := throttledScenario(applyDelay)
	scenario.CheckpointDir = t.TempDir()
	liveStats := func(c *client) serve.Stats {
		t.Helper()
		status, raw := c.do(http.MethodGet, "/v1/stats", nil)
		var st serve.Stats
		if err := json.Unmarshal(raw, &st); status != http.StatusOK || err != nil {
			t.Fatalf("stats: status %d, %v: %s", status, err, raw)
		}
		if st.State != "serving" {
			t.Fatalf("state %q, want serving", st.State)
		}
		return st
	}
	evs := make([]events.Event, 2*batch)
	for i := range evs {
		evs[i] = shedEvent(i)
	}

	tsA := newTestServer(t, serve.Config{Scenario: scenario, Meta: meta})
	cA := newClient(t, tsA)
	if st, acc, _ := cA.sendBatch(evs[:batch]); st != http.StatusOK || acc != batch {
		t.Fatalf("first batch: status %d, accepted %d", st, acc)
	}
	// One batch so far, so max = avg: its ack came after its last event
	// applied, a batch's worth of throttled applies after its admission.
	st := liveStats(cA)
	if st.AvgQueueDelayMicros < (batch*applyDelay).Microseconds() || st.MaxQueueDelayMicros != st.AvgQueueDelayMicros {
		t.Fatalf("after one %d-event batch at %v per apply: max %dµs, avg %dµs",
			batch, applyDelay, st.MaxQueueDelayMicros, st.AvgQueueDelayMicros)
	}
	if age := tsA.srv.ClockHeadAge(); age != 0 {
		t.Fatalf("queue drained, head age %v", age)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	runA, err := tsA.srv.Shutdown(ctx, false /* suspend */)
	if err != nil {
		t.Fatalf("suspend: %v", err)
	}
	final := tsA.srv.StatsSnapshot()
	if runA.MaxQueueDelay.Microseconds() != final.MaxQueueDelayMicros ||
		runA.AvgQueueDelay.Microseconds() != final.AvgQueueDelayMicros || runA.AvgQueueDelay <= 0 {
		t.Fatalf("finished run carries max %v avg %v, stats %dµs/%dµs",
			runA.MaxQueueDelay, runA.AvgQueueDelay, final.MaxQueueDelayMicros, final.AvgQueueDelayMicros)
	}

	// Resume: recovery replays the first batch's admissions through the
	// same observer. A re-send is all duplicates, so the cursors were
	// rebuilt — and the clock saw none of it.
	scenario.Resume = true
	tsB := newTestServer(t, serve.Config{Scenario: scenario, Meta: meta})
	cB := newClient(t, tsB)
	if st, acc, dup := cB.sendBatch(evs[:batch]); st != http.StatusOK || acc != 0 || dup != batch {
		t.Fatalf("re-send after resume: status %d, accepted %d, duplicates %d", st, acc, dup)
	}
	if st := liveStats(cB); st.MaxQueueDelayMicros != 0 || st.AvgQueueDelayMicros != 0 || tsB.srv.ClockHeadAge() != 0 {
		t.Fatalf("replayed admissions moved the clock: max %dµs avg %dµs head age %v",
			st.MaxQueueDelayMicros, st.AvgQueueDelayMicros, tsB.srv.ClockHeadAge())
	}
	if st, acc, _ := cB.sendBatch(evs[batch:]); st != http.StatusOK || acc != batch {
		t.Fatalf("live batch after resume: status %d, accepted %d", st, acc)
	}
	if st := liveStats(cB); st.AvgQueueDelayMicros < (batch * applyDelay).Microseconds() {
		t.Fatalf("live batch after resume timed at %dµs", st.AvgQueueDelayMicros)
	}
	if _, err := tsShutdown(tsB); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestOverloadShedding drives a deliberately slow server (1ms per apply)
// past its capacity and asserts the queue-delay gate turns the overload
// into fast 429s with CodeOverload and Retry-After — then self-clears
// once the backlog drains, instead of wedging the server.
//
// Acks track applied durability, so a single sequential client can never
// age the queue: every POST drains its own backlog before returning.
// Overload needs concurrent in-flight batches, so eight workers blast
// disjoint device partitions; once the first round's backlog outlives
// ShedDelay, follow-up posts shed.
func TestOverloadShedding(t *testing.T) {
	meta := tinyMeta()
	meta.Advertisers = []dataset.Advertiser{tinyAdvertiser()}
	ts := newTestServer(t, serve.Config{
		Scenario:     throttledScenario(time.Millisecond),
		Meta:         meta,
		IngestBuffer: 1 << 15, // deep queue: shedding must fire on delay, not depth
		ShedDelay:    15 * time.Millisecond,
	})

	const workers = 8
	var (
		shed    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstRA string // Retry-After header from the first observed shed
		failure error
	)
	fail := func(err error) {
		mu.Lock()
		if failure == nil {
			failure = err
		}
		mu.Unlock()
	}
	client := ts.http.Client()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for batch := 0; batch < 40 && shed.Load() == 0; batch++ {
				evs := make([]serve.EventWire, 128)
				for i := range evs {
					// Worker g owns devices ≡ g (mod workers); seq increases
					// within the worker, so each device's IDs stay monotonic.
					seq := batch*128 + i
					evs[i] = serve.WireFromEvent(events.Event{
						ID:         events.EventID(seq + 1),
						Kind:       events.KindConversion,
						Device:     events.DeviceID(g + workers*(seq%8)),
						Day:        0,
						Advertiser: events.Intern("shop.example"),
						Product:    events.Intern("p0"),
						Value:      5,
					})
				}
				body, _ := json.Marshal(serve.IngestRequest{Events: evs})
				resp, err := client.Post(ts.http.URL+"/v1/events", "application/json",
					bytes.NewReader(body))
				if err != nil {
					fail(fmt.Errorf("worker %d: %w", g, err))
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					var er serve.ErrorResponse
					if err := json.Unmarshal(raw, &er); err != nil {
						fail(fmt.Errorf("parsing 429 body: %v", err))
						return
					}
					if er.Code != serve.CodeOverload {
						continue // plain queue-full backpressure, not a shed
					}
					if er.RetryAfterMs <= 0 {
						fail(fmt.Errorf("shed response carries no retryAfterMs: %s", raw))
						return
					}
					mu.Lock()
					if firstRA == "" {
						firstRA = resp.Header.Get("Retry-After")
					}
					mu.Unlock()
					shed.Add(1)
					return
				default:
					fail(fmt.Errorf("unexpected status %d: %s", resp.StatusCode, raw))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
	if shed.Load() == 0 {
		t.Fatalf("no shed 429 across %d concurrent workers at 128x overload", workers)
	}
	if firstRA == "" {
		t.Fatalf("shed 429 carries no Retry-After header")
	}
	if st := ts.srv.StatsSnapshot(); st.Shed == 0 {
		t.Fatalf("shed responses sent but Stats.Shed is zero")
	}

	// Self-clearing: once the service drains the backlog, the same client
	// is admitted again without any server intervention. IDs far above
	// every worker's range keep the probe monotonic on device 0.
	c := newClient(t, ts)
	deadline := time.Now().Add(time.Minute)
	for i := 0; ; i++ {
		ev := events.Event{
			ID: events.EventID(1<<20 + i), Kind: events.KindConversion,
			Device: 0, Day: 0, Advertiser: events.Intern("shop.example"), Product: events.Intern("p0"), Value: 5,
		}
		body, _ := json.Marshal(serve.IngestRequest{Events: []serve.EventWire{serve.WireFromEvent(ev)}})
		status, resp := c.do(http.MethodPost, "/v1/events", body)
		if status == http.StatusOK {
			break
		}
		if status != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d while draining: %s", status, resp)
		}
		if time.Now().After(deadline) {
			t.Fatalf("shed gate never cleared after the backlog drained")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := tsShutdown(ts); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRetryAfterRoundTrip is the full contract in one loop: a saturated
// shedding server emits Retry-After on every pushback, and the loadgen
// client honors the hints, backs off, and still lands the entire trace —
// with zero give-ups and zero missing-header violations. Eight senders
// keep multiple batches in flight so the queue actually ages (a single
// sender's applied-durability acks would drain it between posts).
func TestRetryAfterRoundTrip(t *testing.T) {
	days := 4
	ds := &dataset.Dataset{
		Name:              "shed-roundtrip",
		PopulationDevices: 64,
		DurationDays:      days,
		Advertisers:       []dataset.Advertiser{tinyAdvertiser()},
	}
	for i := 0; i < 1200; i++ {
		ds.Events = append(ds.Events, shedEvent(i))
	}

	meta := tinyMeta()
	meta.Name = ds.Name
	ts := newTestServer(t, serve.Config{
		Scenario:     throttledScenario(500 * time.Microsecond),
		Meta:         meta,
		IngestBuffer: 1 << 15,
		ShedDelay:    10 * time.Millisecond,
	})

	rep, err := loadgen.Run(t.Context(), loadgen.Config{
		Target:    ts.http.URL,
		Dataset:   ds,
		Senders:   8,
		BatchSize: 64,
		Seed:      11,
	})
	if err != nil {
		t.Fatalf("loadgen under shedding: %v", err)
	}
	if rep.EventsAccepted != len(ds.Events) {
		t.Fatalf("accepted %d events, want %d", rep.EventsAccepted, len(ds.Events))
	}
	if rep.ShedObserved == 0 {
		t.Fatalf("server never shed under concurrent overload (retries429=%d)", rep.Retries429)
	}
	if rep.RetryAfterWaits == 0 {
		t.Fatalf("client honored no Retry-After hints despite %d sheds", rep.ShedObserved)
	}
	if rep.RetryAfterMissing != 0 {
		t.Fatalf("%d pushback responses lacked Retry-After", rep.RetryAfterMissing)
	}
	if rep.GiveUps != 0 {
		t.Fatalf("give-ups under plain overload: %v", rep.GiveUpsBySender)
	}
	if _, err := tsShutdown(ts); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := ts.srv.StatsSnapshot(); st.Shed == 0 {
		t.Fatalf("loadgen observed %d sheds but server counted none", rep.ShedObserved)
	}
}
