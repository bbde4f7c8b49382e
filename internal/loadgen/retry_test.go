package loadgen_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/loadgen"
	"repro/internal/serve"
)

// retry_test.go pins the client retry discipline against stub servers
// whose behavior the tests control exactly: bounded give-ups when a
// server never relents, and Retry-After hints honored over the client's
// own backoff schedule.

func stubDataset(n int) *dataset.Dataset {
	ds := &dataset.Dataset{
		Name:              "stub",
		PopulationDevices: 4,
		DurationDays:      1,
		Advertisers: []dataset.Advertiser{{
			Site: events.Intern("stub.example"), Products: []events.Sym{events.Intern("p0")},
			MaxValue: 10, AvgReportValue: 5, BatchSize: 10,
		}},
	}
	for i := 0; i < n; i++ {
		ds.Events = append(ds.Events, events.Event{
			ID: events.EventID(i + 1), Kind: events.KindConversion,
			Device: events.DeviceID(i % 4), Day: 0,
			Advertiser: events.Intern("stub.example"), Product: events.Intern("p0"), Value: 1,
		})
	}
	return ds
}

// TestLoadgenGiveUpBounded: a server that refuses every ingest forever
// must not wedge the client. The sender burns its bounded retry budget,
// gives up loudly, and the report locates the abandoned batch.
func TestLoadgenGiveUpBounded(t *testing.T) {
	var ingests atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/queries":
			w.WriteHeader(http.StatusOK)
		case "/v1/events":
			ingests.Add(1)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(serve.ErrorResponse{
				Error: "full", Code: serve.CodeBackpressure, RetryAfterMs: 1,
			})
		default:
			http.NotFound(w, r)
		}
	}))
	defer hs.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Target: hs.URL, Dataset: stubDataset(32), Senders: 1, BatchSize: 16,
		MaxRetries: 5, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	if err == nil {
		t.Fatalf("run against an always-refusing server reported success")
	}
	if rep == nil {
		t.Fatalf("failed run returned no report")
	}
	if rep.GiveUps != 1 {
		t.Fatalf("give-ups = %d, want exactly 1 (first batch abandoned, run stops)", rep.GiveUps)
	}
	if len(rep.GiveUpsBySender) != 1 || rep.GiveUpsBySender[0] != 1 {
		t.Fatalf("give-ups by sender = %v, want [1]", rep.GiveUpsBySender)
	}
	// MaxRetries bounds attempts per batch: 1 initial + 5 retries.
	if got := ingests.Load(); got != 6 {
		t.Fatalf("server saw %d ingest attempts, want 6 (1 + MaxRetries)", got)
	}
	if rep.Retries429 != 6 {
		t.Fatalf("retries429 = %d, want 6 (every pushback counted)", rep.Retries429)
	}
	if rep.RetryAfterMissing != 0 {
		t.Fatalf("server sent Retry-After on every refusal, client counted %d missing", rep.RetryAfterMissing)
	}
}

// TestLoadgenHonorsRetryAfter: a pushback carrying a precise hint far
// above the client's own backoff must stall the retry for the hinted
// time, not the exponential schedule's few milliseconds.
func TestLoadgenHonorsRetryAfter(t *testing.T) {
	const hintMs = 300
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/queries":
			w.WriteHeader(http.StatusOK)
		case "/v1/events":
			if calls.Add(1) == 1 {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				json.NewEncoder(w).Encode(serve.ErrorResponse{
					Error: "overloaded", Code: serve.CodeOverload, RetryAfterMs: hintMs,
				})
				return
			}
			var req serve.IngestRequest
			json.NewDecoder(r.Body).Decode(&req)
			json.NewEncoder(w).Encode(serve.IngestResponse{Accepted: len(req.Events)})
		default:
			http.NotFound(w, r)
		}
	}))
	defer hs.Close()

	start := time.Now()
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Target: hs.URL, Dataset: stubDataset(16), Senders: 1, BatchSize: 16,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("loadgen.Run: %v", err)
	}
	if elapsed < hintMs*time.Millisecond {
		t.Fatalf("run finished in %v; the %dms Retry-After hint was not honored", elapsed, hintMs)
	}
	if rep.RetryAfterWaits != 1 {
		t.Fatalf("retryAfterWaits = %d, want 1", rep.RetryAfterWaits)
	}
	if rep.ShedObserved != 1 {
		t.Fatalf("shedObserved = %d, want 1 (the pushback carried the overload code)", rep.ShedObserved)
	}
	if rep.EventsAccepted != 16 {
		t.Fatalf("accepted %d events, want 16", rep.EventsAccepted)
	}
	if rep.RetryAmplification <= 1 {
		t.Fatalf("retry amplification %.3f, want > 1 after a retried batch", rep.RetryAmplification)
	}
}
