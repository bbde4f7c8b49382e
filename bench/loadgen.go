package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
)

// The benchmark's own load generator. It differs from internal/loadgen where
// a benchmark must: in the open loop every request has a due time fixed
// before the run, is sent at that time however slow the server is, and is
// timed from it, so the wait a stall imposes on later requests is counted;
// how late the generator itself ran is reported; and the poller's first
// sighting of every result is kept, which is what result lag is made of.

// maxAttempts bounds the verbatim retries of one request on pushback.
const maxAttempts = 50

// loadPlan is what one pass sends.
type loadPlan struct {
	base  string      // http://host:port of the SUT child
	days  [][]request // per day, lane-interleaved (prepareRequests)
	lanes int         // writer connections
	// rate, when positive, selects the open loop: request i of the run is
	// due i/rate seconds after the first. Zero selects the closed loop: a
	// connection sends its next request when the previous one is acked.
	rate float64
	poll bool // run the result poller
	// wrap, when set, wraps every connection's transport (traced pass).
	wrap func(http.RoundTripper) http.RoundTripper
}

// loadResult is what the generator saw.
type loadResult struct {
	Events   int
	Requests int // attempted
	Failed   int // never acked 200
	Retries  int
	// AckMs holds one latency per acked request: from its send in the
	// closed loop, from its due time in the open loop.
	AckMs []float64
	// WithinLimit counts acks that arrived within ackLimitMs.
	WithinLimit int
	// LateMs is how long after it could have sent each open-loop request
	// the generator actually did — its own lateness, not the server's.
	LateMs []float64
	Polls  int
	// SeenNs[i] is when the poller first saw result i (0 = never; results
	// past the end were never seen either). DayFirstDueNs[d] is the due time
	// of day d's first request, 0 for a day without requests. Result lag is
	// made of the two (resultLags).
	SeenNs        []int64
	DayFirstDueNs []int64
	// StartNs and EndNs bracket the run: first request offered to shutdown
	// answered (all results released). LastAckNs is when the last ingest
	// request was acked.
	StartNs, LastAckNs, EndNs int64
	CPUS                      float64 // generator process CPU over the same interval
	Shutdown                  serve.ShutdownResponse
}

func newClient(wrap func(http.RoundTripper) http.RoundTripper) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	if wrap != nil {
		rt = wrap(rt)
	}
	return &http.Client{Transport: rt}
}

// exchange performs one HTTP exchange and returns the status and body.
func exchange(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// post sends one ingest body until it is acked, retrying verbatim on
// pushback (the server's per-device cursors make redelivery idempotent).
func post(c *http.Client, url string, body []byte) (retries int, err error) {
	for attempt := 1; ; attempt++ {
		status, respBody, err := exchange(c, http.MethodPost, url, body)
		switch {
		case err != nil:
			return retries, err
		case status == http.StatusOK:
			return retries, nil
		case status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable:
			return retries, fmt.Errorf("ingest answered %d: %s", status, respBody)
		case attempt == maxAttempts:
			return retries, fmt.Errorf("ingest still refused (%d) after %d attempts", status, attempt)
		}
		retries++
		var hint serve.ErrorResponse
		_ = json.Unmarshal(respBody, &hint) // a missing hint just means the default wait
		wait := time.Duration(hint.RetryAfterMs) * time.Millisecond
		if wait <= 0 {
			wait = 50 * time.Millisecond
		}
		time.Sleep(wait)
	}
}

// spinWindow is how long before a due time the open loop stops sleeping and
// polls the clock instead: a sleeping thread here wakes up to a millisecond
// late, which would be charged to every ack as latency.
const spinWindow = 2 * time.Millisecond

// sleepUntil returns at `due`, not after it. While it polls the clock it
// yields, so the poller sharing the generator's one thread still runs.
func sleepUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// runLoad drives one pass and shuts the served run down (final), which is
// what releases the last day's results and completes the run.
func runLoad(p loadPlan) (*loadResult, error) {
	res := &loadResult{}
	clients := make([]*http.Client, p.lanes)
	for i := range clients {
		clients[i] = newClient(p.wrap)
		defer clients[i].CloseIdleConnections()
	}
	eventsURL := p.base + "/v1/events"

	// The schedule: request i of the whole run is due at start + i/rate.
	interval := time.Duration(0)
	if p.rate > 0 {
		interval = time.Duration(float64(time.Second) / p.rate)
	}
	res.DayFirstDueNs = make([]int64, len(p.days))

	var poller *resultPoller
	if p.poll {
		poller = startPoller(p.base, newClient(p.wrap))
	}

	var mu sync.Mutex // guards res from the lane goroutines
	var firstErr error
	cpu0 := readProc().cpuS
	start := time.Now()
	res.StartNs = start.UnixNano()
	seq := 0
	for day, reqs := range p.days {
		if len(reqs) == 0 {
			continue
		}
		res.DayFirstDueNs[day] = start.Add(time.Duration(seq) * interval).UnixNano()
		// A lane is free to send from the moment the previous day's last
		// ack arrived, i.e. now.
		released := time.Now()
		perLane := make([][]int, p.lanes)
		for i, rq := range reqs {
			perLane[rq.Lane] = append(perLane[rq.Lane], i)
		}
		var wg sync.WaitGroup
		for lane, idxs := range perLane {
			if len(idxs) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				free := released
				for _, i := range idxs {
					rq := reqs[i]
					from := time.Time{}
					late := 0.0
					if interval > 0 {
						due := start.Add(time.Duration(seq+i) * interval)
						sleepUntil(due)
						could := due
						if free.After(could) {
							could = free
						}
						late = float64(time.Since(could)) / 1e6
						from = due
					}
					sent := time.Now()
					if from.IsZero() {
						from = sent
					}
					retries, err := post(clients[lane], eventsURL, rq.Body)
					free = time.Now()
					ms := float64(free.Sub(from)) / 1e6
					mu.Lock()
					res.Requests++
					res.Retries += retries
					res.Events += rq.Events
					if err != nil {
						res.Failed++
						if firstErr == nil {
							firstErr = err
						}
					} else {
						res.AckMs = append(res.AckMs, ms)
						if ms <= ackLimitMs {
							res.WithinLimit++
						}
						if interval > 0 {
							res.LateMs = append(res.LateMs, late)
						}
					}
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}()
		}
		wg.Wait() // day barrier: every ack of this day is in
		seq += len(reqs)
		if firstErr != nil {
			break
		}
	}

	res.LastAckNs = nowNs()
	if poller != nil {
		res.Polls, res.SeenNs = poller.stop()
	}
	// Shut down even after a failed request, so the child can exit.
	status, body, err := exchange(clients[0], http.MethodPost, p.base+"/v1/shutdown", nil)
	res.EndNs = nowNs()
	res.CPUS = readProc().cpuS - cpu0
	if firstErr != nil {
		return res, firstErr
	}
	if err != nil || status != http.StatusOK {
		return res, fmt.Errorf("shutdown answered %d: %s: %v", status, body, err)
	}
	if err := json.Unmarshal(body, &res.Shutdown); err != nil {
		return res, fmt.Errorf("shutdown response: %w", err)
	}
	if res.Shutdown.State != "done" {
		return res, fmt.Errorf("served run failed: %s", res.Shutdown.Error)
	}
	return res, nil
}

// resultPoller polls GET /v1/results?after= on its own connection and keeps
// the instant each result index was first returned.
type resultPoller struct {
	cancel context.CancelFunc
	done   chan struct{}
	polls  int
	seenNs []int64 // indexed by result index
}

func startPoller(base string, c *http.Client) *resultPoller {
	ctx, cancel := context.WithCancel(context.Background())
	p := &resultPoller{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		defer c.CloseIdleConnections()
		tick := time.NewTicker(pollEveryMs * time.Millisecond)
		defer tick.Stop()
		after := -1
		// One more poll after the stop: everything released before the last
		// ack is then seen, however the ticks fell.
		for last := false; !last; {
			select {
			case <-ctx.Done():
				last = true
			case <-tick.C:
			}
			status, body, err := exchange(c, http.MethodGet, fmt.Sprintf("%s/v1/results?after=%d", base, after), nil)
			now := nowNs()
			p.polls++
			if err != nil || status != http.StatusOK {
				continue // counted as a poll that showed nothing; unseen results fail the pass
			}
			var rr serve.ResultsResponse
			if json.Unmarshal(body, &rr) != nil {
				continue
			}
			for _, r := range rr.Results {
				for len(p.seenNs) <= r.Index {
					p.seenNs = append(p.seenNs, 0)
				}
				if p.seenNs[r.Index] == 0 {
					p.seenNs[r.Index] = now
				}
				after = max(after, r.Index)
			}
		}
	}()
	return p
}

// stop ends the poller and returns what it saw.
func (p *resultPoller) stop() (polls int, seenNs []int64) {
	p.cancel()
	<-p.done
	return p.polls, p.seenNs
}
