// Package loadgen drives a running measured server (internal/serve) with
// a workload trace: N concurrent senders partition the trace's device
// population and POST event batches at a configurable aggregate request
// rate, while a poller measures querier-side result latency. It reports
// ingest and query latency quantiles (p50/p95/p99) and sustained
// throughput — the rows of `measured chaos`'s REPORT_chaos.json.
//
// Senders advance through the trace day by day with a barrier between
// days: within a day, batches from different senders interleave freely
// (per-device order is still monotonic, which is all admission dedupe
// needs), but no sender starts day d+1 until every sender finished day d,
// matching the nondecreasing-day arrival contract of a real deployment's
// day clock.
//
// Retry discipline (DESIGN.md §14): a batch is retried verbatim on
// pushback (429/503) and on transport errors — at-least-once delivery,
// safe because the server's (device, seq) dedupe makes redelivery
// idempotent. Each attempt carries its own deadline; waits between
// attempts use capped exponential backoff with seeded equal-jitter, and
// honor the server's Retry-After (header or precise retryAfterMs body
// hint) when it asks for more. A batch still refused after MaxRetries is
// a give-up: counted per sender, and the run fails loudly instead of
// hanging on a wedged server.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/serve"
	"repro/internal/stats"
)

// maxRetryAfter caps how long a server Retry-After hint is honored: a
// confused server must not park the client forever.
const maxRetryAfter = 30 * time.Second

// warmupFraction is the share of the earliest ingest-latency samples the
// report's ingest quantiles discard, so connection setup and day-0 ramp-up
// don't pollute steady-state numbers. Only those samples are trimmed: the
// wall time, and so SustainedRPS, covers the whole run.
const warmupFraction = 0.1

// Config parameterizes one load run.
type Config struct {
	// Target is the server's base URL, e.g. http://127.0.0.1:8080.
	Target string
	// Dataset supplies the trace: its advertisers are registered first (in
	// order, so a fresh server's canonical querier order matches the
	// trace), then its events are sent.
	Dataset *dataset.Dataset
	// Senders is the number of concurrent sender goroutines. The device
	// population is partitioned across them by device ID. 0 selects 4.
	Senders int
	// RPS caps the aggregate ingest request rate across all senders
	// (0 = unpaced, as fast as the server admits).
	RPS float64
	// BatchSize is the number of events per POST /v1/events (capped at
	// the server's per-request limit). 0 selects 256.
	BatchSize int
	// PollInterval is the result poller's cadence (0 = 50ms).
	PollInterval time.Duration
	// Client overrides the HTTP client (nil = 30s-timeout default). Chaos
	// harnesses install a netfault.Transport here.
	Client *http.Client
	// MaxRetries bounds per-batch retries (pushback and transport errors
	// alike) before the sender gives up and the run fails (0 = 2500,
	// which at the 2ms floor is tens of seconds of pushback).
	MaxRetries int
	// RequestTimeout bounds each individual attempt (0 = 10s); the
	// Client's own timeout still caps the whole exchange.
	RequestTimeout time.Duration
	// BaseBackoff and MaxBackoff bound the jittered exponential backoff
	// between attempts (0 = 2ms and 250ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the backoff jitter streams (per sender), so a load run
	// is reproducible end to end.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Senders == 0 {
		c.Senders = 4
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.BatchSize > serve.MaxBatchEvents {
		c.BatchSize = serve.MaxBatchEvents
	}
	if c.PollInterval == 0 {
		c.PollInterval = 50 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2500
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 2 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 250 * time.Millisecond
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Target == "":
		return fmt.Errorf("loadgen: empty target")
	case c.Dataset == nil:
		return fmt.Errorf("loadgen: nil dataset")
	case c.Senders < 0 || c.BatchSize < 0 || c.RPS < 0:
		return fmt.Errorf("loadgen: negative senders, batch size or rps")
	}
	return nil
}

// Report is one load run's measurements. All latencies are milliseconds;
// the flat shape embeds straight into REPORT_chaos.json rows.
type Report struct {
	Workload  string  `json:"workload"`
	Senders   int     `json:"senders"`
	TargetRPS float64 `json:"targetRPS"`
	BatchSize int     `json:"batchSize"`

	Requests       int `json:"requests"`
	EventsSent     int `json:"eventsSent"`
	EventsAccepted int `json:"eventsAccepted"`
	Duplicates     int `json:"duplicates"`
	Retries429     int `json:"retries429"`
	Retries503     int `json:"retries503"`
	// RetriesNet counts attempts retried after transport-level failures
	// (resets, timeouts, dropped responses) — the at-least-once path.
	RetriesNet int `json:"retriesNet"`
	// ShedObserved counts 429s carrying the overload-shed code, as
	// distinct from queue-full backpressure.
	ShedObserved int `json:"shedObserved"`
	// RetryAfterWaits counts retry waits where the server supplied a
	// Retry-After hint (honored up to maxRetryAfter); RetryAfterMissing
	// counts pushback responses lacking the header entirely — a server-
	// side contract violation the bench surfaces.
	RetryAfterWaits   int `json:"retryAfterWaits"`
	RetryAfterMissing int `json:"retryAfterMissing"`
	// GiveUps counts batches abandoned after MaxRetries (any give-up
	// fails the run); GiveUpsBySender locates the wedged sender.
	GiveUps         int   `json:"giveUps"`
	GiveUpsBySender []int `json:"giveUpsBySender,omitempty"`
	// RetryAmplification is attempts per unique batch: 1.0 on a clean
	// network, rising with injected faults and pushback.
	RetryAmplification float64 `json:"retryAmplification"`

	DurationSeconds       float64 `json:"durationSeconds"`
	SustainedRPS          float64 `json:"sustainedRPS"`
	SustainedEventsPerSec float64 `json:"sustainedEventsPerSec"`

	IngestP50Millis float64 `json:"ingestP50Millis"`
	IngestP95Millis float64 `json:"ingestP95Millis"`
	IngestP99Millis float64 `json:"ingestP99Millis"`

	// AcceptedP* are quantiles over accepted (200) attempts only — what
	// admitted traffic experienced, excluding fast pushback round-trips.
	// Under shedding this is the bounded-latency claim's metric.
	AcceptedP50Millis float64 `json:"acceptedP50Millis"`
	AcceptedP95Millis float64 `json:"acceptedP95Millis"`
	AcceptedP99Millis float64 `json:"acceptedP99Millis"`

	QueryPolls      int     `json:"queryPolls"`
	ResultsFetched  int     `json:"resultsFetched"`
	QueryP50Millis  float64 `json:"queryP50Millis"`
	QueryP95Millis  float64 `json:"queryP95Millis"`
	QueryP99Millis  float64 `json:"queryP99Millis"`
	WarmupDiscarded int     `json:"warmupDiscarded"`
}

// pacer doles out send slots at an aggregate request rate. The zero rate
// never blocks.
type pacer struct {
	mu       sync.Mutex
	interval time.Duration
	next     time.Time
}

func newPacer(rps float64) *pacer {
	if rps <= 0 {
		return &pacer{}
	}
	return &pacer{interval: time.Duration(float64(time.Second) / rps)}
}

// wait blocks until the caller's slot arrives and returns false if ctx
// ended first.
func (p *pacer) wait(ctx context.Context) bool {
	if p.interval == 0 {
		return ctx.Err() == nil
	}
	p.mu.Lock()
	now := time.Now()
	if p.next.Before(now) {
		p.next = now
	}
	slot := p.next
	p.next = p.next.Add(p.interval)
	p.mu.Unlock()
	if d := time.Until(slot); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return false
		}
	}
	return ctx.Err() == nil
}

// generator is one live load run.
type generator struct {
	cfg   Config
	pacer *pacer
	rngs  []*stats.RNG // per-sender jitter streams

	mu          sync.Mutex
	ingestMs    []float64 // POST /v1/events round-trip, send order
	acceptedMs  []float64 // 200-attempt round-trips only
	queryMs     []float64 // GET /v1/results round-trip, poll order
	requests    int
	batches     int
	accepted    int
	duplicates  int
	retries429  int
	retries503  int
	retriesNet  int
	shedSeen    int
	raWaits     int
	raMissing   int
	giveUps     []int // per sender
	polls       int
	resultsSeen int
}

// Run executes the load run: register queriers, stream the trace through
// N senders, and measure. It returns the report; the server is left
// serving (the caller decides whether to shut it down or keep feeding).
// On failure the report is still returned alongside the error with
// whatever was measured before the run died — give-up telemetry included
// — so a wedged server fails loudly with its numbers attached.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := &generator{cfg: cfg, pacer: newPacer(cfg.RPS)}
	g.giveUps = make([]int, cfg.Senders)
	g.rngs = make([]*stats.RNG, cfg.Senders)
	for i := range g.rngs {
		g.rngs[i] = stats.Stream(cfg.Seed, fmt.Sprintf("loadgen/sender/%d", i))
	}
	if err := g.register(ctx); err != nil {
		return nil, err
	}

	// Partition the trace by sender (device ID modulo senders keeps each
	// device's events on one sender, preserving per-device order), then by
	// day for the inter-day barrier.
	days := cfg.Dataset.DurationDays
	bySender := make([][][]events.Event, cfg.Senders) // [sender][day][]event
	for i := range bySender {
		bySender[i] = make([][]events.Event, days)
	}
	ordered := make([]events.Event, len(cfg.Dataset.Events))
	copy(ordered, cfg.Dataset.Events)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Before(ordered[j]) })
	sent := 0
	for _, ev := range ordered {
		s := int(uint64(ev.Device) % uint64(cfg.Senders))
		bySender[s][ev.Day] = append(bySender[s][ev.Day], ev)
		sent++
	}

	pollCtx, stopPoll := context.WithCancel(ctx)
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		g.poll(pollCtx)
	}()

	start := time.Now()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for day := 0; day < days; day++ {
		for s := 0; s < cfg.Senders; s++ {
			batch := bySender[s][day]
			if len(batch) == 0 {
				continue
			}
			wg.Add(1)
			go func(sender int, evs []events.Event) {
				defer wg.Done()
				if err := g.sendDay(ctx, sender, evs); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}(s, batch)
		}
		wg.Wait() // day barrier
		if firstErr != nil {
			break
		}
	}
	elapsed := time.Since(start)
	stopPoll()
	pollWG.Wait()
	return g.report(sent, elapsed), firstErr
}

// register posts the dataset's queriers in order, under the same retry
// discipline as event batches (registration is idempotent server-side, so
// a redelivered registration re-acks instead of conflicting).
func (g *generator) register(ctx context.Context) error {
	for _, a := range g.cfg.Dataset.Advertisers {
		body, err := json.Marshal(serve.RegistrationFromAdvertiser(a))
		if err != nil {
			return err
		}
		backoff := newBackoff(g.cfg, g.rngs[0])
		for attempt := 0; ; attempt++ {
			status, respBody, hdr, err := g.post(ctx, "/v1/queries", body)
			retryable := err != nil ||
				status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
			if !retryable {
				if status != http.StatusOK {
					return fmt.Errorf("loadgen: registering %s: status %d: %s", a.Site, status, respBody)
				}
				break
			}
			if attempt >= g.cfg.MaxRetries {
				if err != nil {
					return fmt.Errorf("loadgen: registering %s: %w", a.Site, err)
				}
				return fmt.Errorf("loadgen: registering %s: still refused (status %d) after %d retries",
					a.Site, status, attempt)
			}
			if werr := backoff.sleep(ctx, retryHint(status, respBody, hdr)); werr != nil {
				return werr
			}
		}
	}
	return nil
}

// sendDay streams one sender's slice of one day, batch by batch.
func (g *generator) sendDay(ctx context.Context, sender int, evs []events.Event) error {
	for len(evs) > 0 {
		n := min(g.cfg.BatchSize, len(evs))
		if err := g.sendBatch(ctx, sender, evs[:n]); err != nil {
			return err
		}
		evs = evs[n:]
	}
	return nil
}

// backoff is one batch's wait policy: capped exponential with seeded
// equal-jitter, overridden upward by server Retry-After hints.
type backoff struct {
	cur time.Duration
	max time.Duration
	rng *stats.RNG
}

func newBackoff(cfg Config, rng *stats.RNG) *backoff {
	return &backoff{cur: cfg.BaseBackoff, max: cfg.MaxBackoff, rng: rng}
}

// sleep waits out one retry: equal-jitter on the current exponential step
// (half fixed, half uniform), or the server's hint when it asks for more.
func (b *backoff) sleep(ctx context.Context, hint time.Duration) error {
	d := b.cur/2 + time.Duration(b.rng.Float64()*float64(b.cur/2))
	if hint > d {
		d = hint
	}
	if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryHint extracts the server's retry guidance from a pushback
// response: the precise retryAfterMs body field when present, else the
// integer-seconds Retry-After header, capped at maxRetryAfter. Zero means
// the server offered none.
func retryHint(status int, body []byte, hdr http.Header) time.Duration {
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		return 0
	}
	var hint time.Duration
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.RetryAfterMs > 0 {
		hint = time.Duration(er.RetryAfterMs) * time.Millisecond
	} else if ra := hdr.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			hint = time.Duration(secs) * time.Second
		}
	}
	return min(hint, maxRetryAfter)
}

// sendBatch posts one batch, retrying verbatim on pushback (429/503) and
// on transport errors — at-least-once, leaning on the server's
// (device, seq) idempotency — under the jittered backoff discipline. A
// batch still failing after MaxRetries is a give-up: counted against the
// sender and returned as the run's error.
func (g *generator) sendBatch(ctx context.Context, sender int, evs []events.Event) error {
	req := serve.IngestRequest{Events: make([]serve.EventWire, len(evs))}
	for i, ev := range evs {
		req.Events[i] = serve.WireFromEvent(ev)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.batches++
	g.mu.Unlock()
	bo := newBackoff(g.cfg, g.rngs[sender])
	for attempt := 0; ; attempt++ {
		if !g.pacer.wait(ctx) {
			return ctx.Err()
		}
		attemptCtx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
		t0 := time.Now()
		status, respBody, hdr, err := g.post(attemptCtx, "/v1/events", body)
		rtt := time.Since(t0)
		cancel()
		if err != nil {
			// Transport-level failure: the server may or may not have
			// processed the batch (lost-ack regime). Redelivery is safe —
			// admitted events dedupe — so retry unless the run itself ended.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			g.mu.Lock()
			g.retriesNet++
			g.mu.Unlock()
			if attempt >= g.cfg.MaxRetries {
				return g.giveUp(sender, fmt.Errorf("loadgen: POST /v1/events failing after %d retries: %w", attempt, err))
			}
			if werr := bo.sleep(ctx, 0); werr != nil {
				return werr
			}
			continue
		}
		g.mu.Lock()
		g.requests++
		g.ingestMs = append(g.ingestMs, float64(rtt)/float64(time.Millisecond))
		g.mu.Unlock()
		switch status {
		case http.StatusOK:
			var resp serve.IngestResponse
			if err := json.Unmarshal(respBody, &resp); err != nil {
				return fmt.Errorf("loadgen: parsing ingest response: %w", err)
			}
			g.mu.Lock()
			g.accepted += resp.Accepted
			g.duplicates += resp.Duplicates
			g.acceptedMs = append(g.acceptedMs, float64(rtt)/float64(time.Millisecond))
			g.mu.Unlock()
			return nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var er serve.ErrorResponse
			shed := json.Unmarshal(respBody, &er) == nil && er.Code == serve.CodeOverload
			hint := retryHint(status, respBody, hdr)
			g.mu.Lock()
			if status == http.StatusTooManyRequests {
				g.retries429++
			} else {
				g.retries503++
			}
			if shed {
				g.shedSeen++
			}
			if hdr.Get("Retry-After") == "" {
				g.raMissing++
			}
			if hint > 0 {
				g.raWaits++
			}
			g.mu.Unlock()
			if attempt >= g.cfg.MaxRetries {
				return g.giveUp(sender, fmt.Errorf("loadgen: batch still refused (status %d) after %d retries",
					status, attempt))
			}
			if werr := bo.sleep(ctx, hint); werr != nil {
				return werr
			}
		default:
			return fmt.Errorf("loadgen: POST /v1/events: status %d: %s", status, respBody)
		}
	}
}

// giveUp records an abandoned batch against its sender and fails the run.
func (g *generator) giveUp(sender int, err error) error {
	g.mu.Lock()
	g.giveUps[sender]++
	g.mu.Unlock()
	return fmt.Errorf("%w (sender %d gave up)", err, sender)
}

// poll is the querier side of the load: fetch new results on a fixed
// cadence, measuring each GET's round trip.
func (g *generator) poll(ctx context.Context) {
	after := -1
	t := time.NewTicker(g.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		t0 := time.Now()
		status, body, err := g.get(ctx, fmt.Sprintf("/v1/results?after=%d", after))
		rtt := time.Since(t0)
		if err != nil || status != http.StatusOK {
			continue // poller is best-effort; senders report hard failures
		}
		var resp serve.ResultsResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			continue
		}
		g.mu.Lock()
		g.polls++
		g.queryMs = append(g.queryMs, float64(rtt)/float64(time.Millisecond))
		g.resultsSeen += len(resp.Results)
		g.mu.Unlock()
		for _, r := range resp.Results {
			if r.Index > after {
				after = r.Index
			}
		}
	}
}

func (g *generator) post(ctx context.Context, path string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		g.cfg.Target+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return g.do(req)
}

func (g *generator) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.cfg.Target+path, nil)
	if err != nil {
		return 0, nil, err
	}
	status, body, _, err := g.do(req)
	return status, body, err
}

func (g *generator) do(req *http.Request) (int, []byte, http.Header, error) {
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, serve.MaxBodyBytes))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, body, resp.Header, nil
}

// report folds the samples into quantiles, discarding the warm-up prefix.
func (g *generator) report(sent int, elapsed time.Duration) *Report {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := &Report{
		Workload:          g.cfg.Dataset.Name,
		Senders:           g.cfg.Senders,
		TargetRPS:         g.cfg.RPS,
		BatchSize:         g.cfg.BatchSize,
		Requests:          g.requests,
		EventsSent:        sent,
		EventsAccepted:    g.accepted,
		Duplicates:        g.duplicates,
		Retries429:        g.retries429,
		Retries503:        g.retries503,
		RetriesNet:        g.retriesNet,
		ShedObserved:      g.shedSeen,
		RetryAfterWaits:   g.raWaits,
		RetryAfterMissing: g.raMissing,
		DurationSeconds:   elapsed.Seconds(),
		QueryPolls:        g.polls,
		ResultsFetched:    g.resultsSeen,
	}
	for _, n := range g.giveUps {
		r.GiveUps += n
	}
	if r.GiveUps > 0 {
		r.GiveUpsBySender = append([]int(nil), g.giveUps...)
	}
	if g.batches > 0 {
		// Attempts per unique batch: successful requests plus every retried
		// attempt (pushback and transport failures alike).
		r.RetryAmplification = float64(g.requests+g.retriesNet) / float64(g.batches)
	}
	if elapsed > 0 {
		r.SustainedRPS = float64(g.requests) / elapsed.Seconds()
		r.SustainedEventsPerSec = float64(g.accepted) / elapsed.Seconds()
	}
	ingest := g.ingestMs
	if cut := int(float64(len(ingest)) * warmupFraction); cut > 0 && cut < len(ingest) {
		r.WarmupDiscarded = cut
		ingest = ingest[cut:]
	}
	r.IngestP50Millis, r.IngestP95Millis, r.IngestP99Millis = quantiles(ingest)
	r.AcceptedP50Millis, r.AcceptedP95Millis, r.AcceptedP99Millis = quantiles(g.acceptedMs)
	r.QueryP50Millis, r.QueryP95Millis, r.QueryP99Millis = quantiles(g.queryMs)
	return r
}

// quantiles returns (p50, p95, p99) of the samples, zeros when empty
// (stats.Quantile refuses an empty sample by design).
func quantiles(samples []float64) (p50, p95, p99 float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return stats.Quantile(sorted, 0.50), stats.Quantile(sorted, 0.95), stats.Quantile(sorted, 0.99)
}
