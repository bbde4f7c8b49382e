// Package serve is the measurement service's network front door
// (DESIGN.md §13): an HTTP/JSON API where devices POST impression and
// conversion events and queriers register queries and poll per-day
// results, backed by stream.Service through the ordinary workload client.
//
// The serving contract, in one paragraph: a 200 on POST /v1/events means
// every event in the batch is either admitted — appended to the
// write-ahead log (when durability is on) and applied to the service
// state — or recognized as a duplicate of an admission that is itself
// durable by the time the response is sent (a duplicate of an event still
// sitting in the admission queue waits for that event to apply, so a retry
// racing its original can never be acknowledged ahead of it); a 429 means
// the bounded admission queue pushed back and the whole batch can be
// retried verbatim (the admitted prefix deduplicates); a 400 carries a
// typed RequestError and admits nothing. Admission order is what the WAL
// records, so a server-fed run is bit-identical to the in-process run
// over the same event sequence — the loopback equivalence test holds it
// to the digest.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Config parameterizes one Server.
type Config struct {
	// Scenario is the workload configuration the served run executes.
	// Scenario.Dataset must be nil (the trace arrives over the network);
	// the late policy is forced to drop-with-counter — hostile traffic
	// must never abort a serving process. Scenario.Resume recovers
	// Scenario.CheckpointDir's durable state before accepting events.
	Scenario workload.Config
	// Meta fixes the served trace's identity: name, device population and
	// duration (day bounds for admission). Meta.Advertisers pre-registers
	// queriers; more may register over POST /v1/queries until the first
	// event seals the run. A resumed server requires the full querier set
	// here — registration is closed at boot.
	Meta dataset.Meta
	// IngestBuffer bounds the admission queue between the HTTP handlers
	// and the service's day clock — the only queue in front of it, and the
	// backpressure window surfaced as 429s. 0 selects 4096.
	IngestBuffer int
	// ShedDelay enables queue-delay overload shedding (DESIGN.md §14):
	// when the oldest admitted-but-unapplied batch has been waiting longer
	// than ShedDelay, ingest requests are shed with a fast 429
	// (CodeOverload) carrying Retry-After, instead of joining a queue
	// whose latency has already collapsed. Queue *delay* rather than queue
	// *depth* is the signal, so a deep-but-draining queue is fine and a
	// shallow-but-stuck one sheds. 0 disables shedding (backpressure 429s
	// still apply when the queue is full).
	ShedDelay time.Duration
}

// Server states, in order.
const (
	stateRegistering int32 = iota // accepting registrations, no events yet
	stateServing                  // run sealed, ingesting
	stateDraining                 // shutdown requested, queue draining
	stateDone                     // run finished (see runErr)
)

func stateString(st int32) string {
	switch st {
	case stateRegistering:
		return "registering"
	case stateServing:
		return "serving"
	case stateDraining:
		return "draining"
	default:
		return "done"
	}
}

// netSource adapts the admission queue to dataset.Source: the service's
// day clock pulls from it like from any trace. Closing ch ends the run;
// suspended distinguishes a graceful suspend (drain and keep resumable
// state) from reaching the end of the trace.
type netSource struct {
	meta      dataset.Meta
	ch        chan events.Event
	ready     chan struct{}
	readyOnce sync.Once
	suspended atomic.Bool
}

// Meta implements dataset.Source.
func (s *netSource) Meta() dataset.Meta { return s.meta }

// Next implements dataset.Source. The first call marks the source ready:
// on a resumed service it happens only after ResumeFrom finished its
// restore and WAL replay, which is the admission layer's signal that the
// dedupe cursors are fully rebuilt and events may be accepted.
func (s *netSource) Next() (events.Event, bool) {
	s.readyOnce.Do(func() { close(s.ready) })
	ev, ok := <-s.ch
	return ev, ok
}

// queueClock is the admission queue's FIFO: its clock and its ack wait
// list in one. Live admissions are numbered in enqueue order — a handler
// that admits n events adds n to admitted, and onAdmit adds 1 to applied
// per live admission — and the ingest channel is FIFO, so a batch is
// WAL-logged and applied exactly when applied reaches the ordinal of its
// last event. Each admitted batch pushes one entry (admission instant,
// that end ordinal, a done channel). When applied reaches an entry's end,
// pop folds the batch's admission→apply sojourn — what its client waited
// for the ack — into longest/total/batches for /v1/stats and the finished
// Run, then closes done, the channel the handler parks on. The head
// entry's age is the signal the shed gate acts on. Server.mu guards it:
// every push, pop and read already runs under that lock.
type queueClock struct {
	entries           []clockEntry
	head              int
	admitted, applied int64 // live admission ordinals
	// Sojourn of the batches whose last event applied, in nanoseconds.
	longest, total, batches int64
}

type clockEntry struct {
	at   int64         // admission instant, UnixNano
	end  int64         // ordinal of the batch's last admission
	done chan struct{} // closed once applied reaches end
}

// push enqueues a batch of n ≥ 1 live admissions and returns the channel
// closed once its last one applies.
func (q *queueClock) push(at int64, n int) chan struct{} {
	switch {
	case q.head == len(q.entries):
		q.entries, q.head = q.entries[:0], 0
	case q.head > 64 && q.head*2 >= len(q.entries):
		k := copy(q.entries, q.entries[q.head:])
		clear(q.entries[k:])
		q.entries, q.head = q.entries[:k], 0
	}
	q.admitted += int64(n)
	done := make(chan struct{})
	q.entries = append(q.entries, clockEntry{at, q.admitted, done})
	return done
}

// pop accounts one live admission applied. Each was pushed under the lock
// its pop takes, so the head exists; ends strictly increase, so at most
// the head completes.
func (q *queueClock) pop() {
	q.applied++
	e := &q.entries[q.head]
	if e.end > q.applied {
		return
	}
	d := time.Now().UnixNano() - e.at
	q.longest = max(q.longest, d)
	q.total += d
	q.batches++
	close(e.done)
	*e = clockEntry{}
	q.head++
}

// newest returns the done channel of the newest unapplied batch, or nil
// when every live admission has applied.
func (q *queueClock) newest() chan struct{} {
	if q.head == len(q.entries) {
		return nil
	}
	return q.entries[len(q.entries)-1].done
}

// headAge is how long the oldest admitted-but-unapplied batch has waited.
func (q *queueClock) headAge(now int64) time.Duration {
	if q.head == len(q.entries) {
		return 0
	}
	return time.Duration(now - q.entries[q.head].at)
}

// delays returns the longest and the mean batch sojourn so far.
func (q *queueClock) delays() (longest, mean time.Duration) {
	if q.batches == 0 {
		return 0, 0
	}
	return time.Duration(q.longest), time.Duration(q.total / q.batches)
}

// Suspended implements dataset.Suspender.
func (s *netSource) Suspended() bool { return s.suspended.Load() }

// Stats is a point-in-time snapshot of the server's admission telemetry.
type Stats struct {
	State string `json:"state"`
	// EventsAccepted counts events admitted into the queue; Duplicates-
	// Rejected counts (device, seq) regressions refused at admission —
	// retried deliveries and per-device reordering alike. LateDropped
	// counts admitted events the service's day clock dropped as late.
	EventsAccepted     int64 `json:"eventsAccepted"`
	DuplicatesRejected int64 `json:"duplicatesRejected"`
	LateDropped        int64 `json:"lateDropped"`
	// Backpressured counts ingest requests pushed back with a 429.
	Backpressured int64 `json:"backpressured"`
	// Shed counts ingest requests refused by the overload gate: the
	// admission queue's head had been waiting past Config.ShedDelay, so
	// the request got a fast 429 + Retry-After instead of queueing.
	Shed          int64 `json:"shed"`
	BadRequests   int64 `json:"badRequests"`
	Results       int   `json:"results"`
	QueueDepth    int   `json:"queueDepth"`
	QueueCapacity int   `json:"queueCapacity"`
	// MaxQueueDelayMicros/AvgQueueDelayMicros are the longest and the mean
	// admission→apply sojourn over the batches applied so far — live while
	// the run serves, and the measured side of the signal ShedDelay acts on
	// (queueClock). QueueDepth counts events; these time whole batches.
	MaxQueueDelayMicros int64 `json:"maxQueueDelayMicros,omitempty"`
	AvgQueueDelayMicros int64 `json:"avgQueueDelayMicros,omitempty"`
	// Final-run telemetry, populated once State is "done" without error.
	EventsIngested int `json:"eventsIngested,omitempty"`
	EventsDropped  int `json:"eventsDropped,omitempty"`
}

// Server is one served measurement run. Create with NewServer, expose
// Handler over any net/http server, and stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu          sync.Mutex
	state       int32
	advertisers []dataset.Advertiser
	advIndex    map[string]int // site name → index in advertisers
	src         *netSource
	// cursors are the per-device dedupe cursors: the stamp of each
	// device's newest admitted event. Admission requires strict (day, id)
	// progress per device, so the event ID doubles as the retry-dedupe
	// sequence number. A live admission advances a cursor at enqueue;
	// onAdmit advances it only for restored and replayed admissions, which
	// is how recovery rebuilds it. clock orders and times the live
	// admissions (see type queueClock).
	cursors map[events.DeviceID]events.Stamp
	clock   queueClock
	results []stream.Result
	stats   Stats
	run     *workload.Run
	runErr  error

	done  chan struct{} // closed when the service goroutine finishes
	ready chan struct{} // closed once admission may accept events
}

// NewServer validates cfg and builds a server. A resumed configuration
// (Scenario.Resume) seals immediately and starts recovery; otherwise the
// server accepts registrations until the first event arrives.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Scenario.Dataset != nil {
		return nil, fmt.Errorf("serve: Scenario.Dataset must be nil (events arrive over the network)")
	}
	if cfg.Meta.PopulationDevices <= 0 || cfg.Meta.DurationDays <= 0 {
		return nil, fmt.Errorf("serve: Meta needs a positive device population and duration")
	}
	if cfg.Meta.Name == "" {
		cfg.Meta.Name = "served"
	}
	if cfg.IngestBuffer == 0 {
		cfg.IngestBuffer = 4096
	}
	if cfg.IngestBuffer < 0 {
		return nil, fmt.Errorf("serve: negative ingest buffer")
	}
	if cfg.ShedDelay < 0 {
		return nil, fmt.Errorf("serve: negative shed delay")
	}
	s := &Server{
		cfg:      cfg,
		advIndex: make(map[string]int),
		cursors:  make(map[events.DeviceID]events.Stamp),
		done:     make(chan struct{}),
		ready:    make(chan struct{}),
	}
	s.stats.QueueCapacity = cfg.IngestBuffer
	presets := make([]QueryRegistration, len(cfg.Meta.Advertisers))
	for i, a := range cfg.Meta.Advertisers {
		presets[i] = RegistrationFromAdvertiser(a)
		s.advIndex[presets[i].Site] = i
	}
	if rerr := checkQueriers(presets); rerr != nil {
		return nil, fmt.Errorf("serve: preset queriers: %w", rerr)
	}
	s.advertisers = slices.Clone(cfg.Meta.Advertisers)
	s.buildMux()
	if cfg.Scenario.Resume {
		if len(s.advertisers) == 0 {
			return nil, fmt.Errorf("serve: resume requires the querier set up front (Meta.Advertisers)")
		}
		s.mu.Lock()
		s.seal()
		s.mu.Unlock()
	}
	return s, nil
}

// seal closes registration and starts the measurement service over the
// admission queue. Caller holds mu.
func (s *Server) seal() {
	meta := s.cfg.Meta
	meta.Advertisers = slices.Clone(s.advertisers)
	src := &netSource{
		meta:  meta,
		ch:    make(chan events.Event, s.cfg.IngestBuffer),
		ready: s.ready,
	}
	s.src = src
	s.state = stateServing

	wcfg := s.cfg.Scenario
	wcfg.LatePolicy = stream.LateDrop
	wcfg.LiveSource = true
	wcfg.AdmitObserver = s.onAdmit
	wcfg.ResultObserver = s.onResult
	go s.runService(wcfg, src)
	if !wcfg.Resume {
		// Fresh runs have no recovery to wait for; resumed runs become
		// ready on the service's first Next call, after restore + replay.
		src.readyOnce.Do(func() { close(src.ready) })
	}
}

// runService drives the workload to completion on its own goroutine.
func (s *Server) runService(wcfg workload.Config, src *netSource) {
	run, err := workload.ExecuteSource(wcfg, src)
	s.mu.Lock()
	s.run, s.runErr = run, err
	s.state = stateDone
	if run != nil {
		s.stats.EventsIngested = run.EventsIngested
		s.stats.EventsDropped = run.EventsDropped
		run.MaxQueueDelay, run.AvgQueueDelay = s.clock.delays()
	}
	close(s.done)
	s.mu.Unlock()
}

// onAdmit runs on the service goroutine for every committed admission
// decision — live, restored, or replayed. A live one advances the applied
// ordinal, which releases the handler whose batch it completes: that is
// what makes a 200 mean "WAL-logged and applied", not "enqueued". Restored
// and replayed ones (resume recovery, which runs before the source turns
// ready) were never pushed by a handler this incarnation; they rebuild the
// dedupe cursors instead. A late drop advances the cursor too: the
// admission decision is durable (WAL-logged, and carried by snapshots as a
// drop mark) even though the event never reaches the store, so a resumed
// server must keep rejecting its retries as duplicates rather than
// re-admitting and re-dropping them.
func (s *Server) onAdmit(ev events.Event, dropped bool) {
	s.mu.Lock()
	if dropped {
		s.stats.LateDropped++
	}
	select {
	case <-s.ready:
		s.clock.pop()
	default:
		if c, ok := s.cursors[ev.Device]; !ok || c.Before(ev) {
			s.cursors[ev.Device] = events.Stamp{Day: ev.Day, ID: ev.ID}
		}
	}
	s.mu.Unlock()
}

// onResult runs on the service goroutine for every released (or restored)
// query result, in canonical order; /v1/results serves from this buffer.
// A result's Index is its position in release order, live and restored
// alike, which is what lets a poll start at its cursor instead of scanning.
func (s *Server) onResult(res stream.Result) {
	s.mu.Lock()
	if res.Index != len(s.results) {
		s.mu.Unlock()
		panic(fmt.Sprintf("serve: result %d released at position %d", res.Index, len(s.results)))
	}
	s.results = append(s.results, res)
	s.stats.Results = len(s.results)
	s.mu.Unlock()
}

// Handler returns the /v1 API handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Done is closed when the served run has finished (cleanly or not).
func (s *Server) Done() <-chan struct{} { return s.done }

// Run returns the completed run once Done is closed.
func (s *Server) Run() (*workload.Run, error) {
	select {
	case <-s.done:
	default:
		return nil, fmt.Errorf("serve: run still in progress")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run, s.runErr
}

// StatsSnapshot returns the current admission telemetry.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Server) statsLocked() Stats {
	st := s.stats
	st.State = stateString(s.state)
	if s.state == stateDone && s.runErr != nil {
		st.State = "failed"
	}
	if s.src != nil {
		st.QueueDepth = len(s.src.ch)
	}
	longest, mean := s.clock.delays()
	st.MaxQueueDelayMicros, st.AvgQueueDelayMicros = longest.Microseconds(), mean.Microseconds()
	return st
}

// Shutdown drains and stops the server. final closes out the trace (the
// in-progress day flushes and the run completes, exactly as if the source
// had drained); !final suspends — the admission queue drains through the
// service, the group-commit syncer flushes, a final generation commits
// when the state is snapshot-clean, and the run is resumable from the
// checkpoint directory. Both wait for the service to finish (or ctx).
func (s *Server) Shutdown(ctx context.Context, final bool) (*workload.Run, error) {
	s.mu.Lock()
	switch s.state {
	case stateRegistering:
		// Never sealed: no service to drain.
		s.state = stateDone
		close(s.done)
		s.mu.Unlock()
		return nil, nil
	case stateServing:
		s.state = stateDraining
		s.src.suspended.Store(!final)
		close(s.src.ch)
	}
	s.mu.Unlock()
	select {
	case <-s.done:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.run, s.runErr
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Server) buildMux() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/events", s.handleEvents)
	s.mux.HandleFunc("/v1/queries", s.handleQueries)
	s.mux.HandleFunc("/v1/results", s.handleResults)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/meta", s.handleMeta)
	s.mux.HandleFunc("/v1/shutdown", s.handleShutdown)
}

// retryAfter stamps a pushback response (429/503) with retry guidance:
// the standard integer-seconds Retry-After header (ceiling, minimum 1)
// plus a precise milliseconds hint returned for the body's retryAfterMs,
// so clients with sub-second backoff need not round up to a full second.
func retryAfter(w http.ResponseWriter, d time.Duration) int64 {
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	secs := (d + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	return d.Milliseconds()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError reports a RequestError as a 400 and counts it.
func (s *Server) writeError(w http.ResponseWriter, status int, rerr *RequestError) {
	s.mu.Lock()
	s.stats.BadRequests++
	s.mu.Unlock()
	resp := ErrorResponse{Error: rerr.Msg, Code: rerr.Code}
	if rerr.Index >= 0 {
		resp.Index = &rerr.Index
	}
	writeJSON(w, status, resp)
}

// errEmptyBody is decodeBody's malformed-JSON error for a body with no
// value in it, which /v1/shutdown accepts as "the default".
var errEmptyBody = reqErr(CodeMalformedJSON, "decoding body: empty body")

// decodeBody decodes the small JSON body of a registration or a shutdown
// under the size cap, distinguishing the oversized case (413) from
// malformed JSON (400) and, among the malformed, the empty body
// (errEmptyBody).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, *RequestError) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	err := json.NewDecoder(r.Body).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return 0, nil
	case errors.Is(err, io.EOF):
		return http.StatusBadRequest, errEmptyBody
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge,
			reqErr(CodeBodyTooLarge, "body exceeds %d bytes", MaxBodyBytes)
	}
	return http.StatusBadRequest, reqErr(CodeMalformedJSON, "decoding body: %v", err)
}

// handleEvents is POST /v1/events: validate the whole batch, admit it in
// order under the dedupe cursors, and acknowledge only after the service
// has WAL-logged and applied the batch's last admitted event — or, for a
// batch of pure duplicates, once the newest unapplied batch has applied,
// so a 200 means durable even when the originals were still queued when
// the retry arrived.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.admitEvents(w, r, scannerPool.Get().(*eventScanner))
}

// admitEvents is handleEvents past the method check, decoding with sc. The
// scanner and the events it decoded go back to the pool once the batch is
// enqueued (or refused), before the handler parks for its ack.
func (s *Server) admitEvents(w http.ResponseWriter, r *http.Request, sc *eventScanner) {
	release := func() {
		if sc != nil {
			sc.release()
			sc = nil
		}
	}
	defer release()
	decoded, status, rerr := sc.readEvents(w, r, s.cfg.Meta.DurationDays)
	if rerr != nil {
		s.writeError(w, status, rerr)
		return
	}

	s.mu.Lock()
	switch s.state {
	case stateRegistering:
		// The first event seals registration, so with no querier registered
		// nothing could ever be measured: refuse instead of sealing. Events
		// naming an advertiser that is not a querier are admitted — the
		// planner ignores them, as the batch engine's plan does.
		if len(s.advertisers) == 0 {
			s.mu.Unlock()
			s.writeError(w, http.StatusBadRequest,
				reqErr(CodeBadRegistration, "no querier is registered; register on /v1/queries before sending events"))
			return
		}
		s.seal()
	case stateServing:
	default:
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: "service is not accepting events", Code: CodeUnavailable})
		return
	}
	src := s.src
	s.mu.Unlock()

	// Recovery gate: a resumed service must finish rebuilding the dedupe
	// cursors (restore + WAL replay) before any admission check is sound.
	select {
	case <-src.ready:
	default:
		ms := retryAfter(w, 100*time.Millisecond)
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: "service is recovering; retry", Code: CodeUnavailable, RetryAfterMs: ms})
		return
	}

	s.mu.Lock()
	if s.state != stateServing {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: "service is not accepting events", Code: CodeUnavailable})
		return
	}
	// Overload gate: shed before queueing when the admission queue's head
	// has waited past ShedDelay. A fast 429 + Retry-After converts
	// sustained saturation into client backoff instead of unbounded
	// latency; the gate self-clears as the service drains the backlog.
	now := time.Now().UnixNano()
	if age := s.clock.headAge(now); s.cfg.ShedDelay > 0 && age > s.cfg.ShedDelay {
		s.stats.Shed++
		s.mu.Unlock()
		ms := retryAfter(w, age)
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:        "overloaded: admission queue delay exceeds the shed threshold",
			Code:         CodeOverload,
			RetryAfterMs: ms,
		})
		return
	}
	accepted, duplicates := 0, 0
	backpressured := false
	for i, ev := range decoded {
		if c, ok := s.cursors[ev.Device]; ok && !c.Before(ev) {
			duplicates++
			continue
		}
		// Only an event about to be queued interns its names: a duplicate
		// or the suffix behind a full queue leaves the symbol table as it
		// was. Handlers send only under s.mu and the service only drains, so
		// the room seen here is still there for the send.
		if len(src.ch) == cap(src.ch) {
			backpressured = true
			break
		}
		src.ch <- sc.withNames(i)
		s.cursors[ev.Device] = events.Stamp{Day: ev.Day, ID: ev.ID}
		accepted++
	}
	// The batch waits on its own entry: applied reaching its last ordinal
	// implies every earlier admission applied too — including the original
	// behind each duplicate in it, which was necessarily enqueued first. A
	// batch of pure duplicates waits on the newest unapplied entry, since
	// its originals were admitted no later than that (a client retrying a
	// timed-out batch races its own first delivery); with none, they have
	// all applied.
	var done chan struct{}
	if accepted > 0 {
		done = s.clock.push(now, accepted)
	} else if duplicates > 0 {
		done = s.clock.newest()
	}
	s.stats.EventsAccepted += int64(accepted)
	s.stats.DuplicatesRejected += int64(duplicates)
	if backpressured {
		s.stats.Backpressured++
	}
	s.mu.Unlock()
	release()

	if backpressured {
		// The admitted prefix stays admitted (its cursors advanced); the
		// client retries the whole batch and the prefix deduplicates.
		// Duplicates reports dedupe hits in the processed prefix so an
		// observer can account for every delivery even on a 429.
		ms := retryAfter(w, 50*time.Millisecond)
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error: "ingest queue full", Code: CodeBackpressure,
			Accepted: accepted, Duplicates: duplicates,
			RetryAfterMs: ms,
		})
		return
	}
	if done != nil {
		select {
		case <-done:
		case <-s.done:
			// The service stopped while the batch was in flight. onAdmit
			// runs on the service goroutine, which closes s.done only after
			// its last admission, so done is closed now or never: if never,
			// the batch is not durable and the client must retry against a
			// recovered server.
			select {
			case <-done:
			default:
				writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
					Error: "service stopped before the batch was applied; retry after recovery",
					Code:  CodeUnavailable,
				})
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, IngestResponse{Accepted: accepted, Duplicates: duplicates})
}

// handleQueries is POST /v1/queries (register a querier) and GET
// /v1/queries (list registrations).
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		regs := make([]QueryRegistration, len(s.advertisers))
		for i, a := range s.advertisers {
			regs[i] = RegistrationFromAdvertiser(a)
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, regs)
		return
	case http.MethodPost:
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
		return
	}
	var reg QueryRegistration
	if status, rerr := decodeBody(w, r, &reg); rerr != nil {
		s.writeError(w, status, rerr)
		return
	}
	if rerr := reg.validate(); rerr != nil {
		s.writeError(w, http.StatusBadRequest, rerr)
		return
	}
	s.mu.Lock()
	if idx, ok := s.advIndex[reg.Site]; ok {
		// Idempotent re-registration is fine at any time; changing an
		// existing registration never is.
		existing := RegistrationFromAdvertiser(s.advertisers[idx])
		n := len(s.advertisers)
		s.mu.Unlock()
		if existing.equal(reg) {
			writeJSON(w, http.StatusOK, RegistrationResponse{Index: idx, Queriers: n})
			return
		}
		writeJSON(w, http.StatusConflict, ErrorResponse{
			Error: fmt.Sprintf("querier %s is already registered with different parameters", reg.Site),
			Code:  CodeConflict,
		})
		return
	}
	if s.state != stateRegistering {
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, ErrorResponse{
			Error: "the run has started; registration is sealed", Code: CodeSealed,
		})
		return
	}
	s.advIndex[reg.Site] = len(s.advertisers)
	s.advertisers = append(s.advertisers, reg.advertiser())
	resp := RegistrationResponse{Index: len(s.advertisers) - 1, Queriers: len(s.advertisers)}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleResults is GET /v1/results?querier=SITE&after=INDEX: released
// results in canonical order, filtered to one querier if asked, strictly
// after the client's cursor.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	querier := r.URL.Query().Get("querier")
	after := -1
	if a := r.URL.Query().Get("after"); a != "" {
		n, err := strconv.Atoi(a)
		if err != nil {
			s.writeError(w, http.StatusBadRequest,
				reqErr(CodeBadQuery, "after must be an integer, got %q", a))
			return
		}
		after = n
	}
	resp := ResultsResponse{Results: []ResultWire{}}
	s.mu.Lock()
	// s.results[i].Index == i (onResult), so a poll costs what is new.
	start := min(max(after, -1), len(s.results)-1) + 1
	for _, res := range s.results[start:] {
		if querier == "" || res.Querier.String() == querier {
			resp.Results = append(resp.Results, wireFromResult(res))
		}
	}
	// A suspended run also ends with a nil error, but it is resumable and
	// more results will be released after resume — only a finished run may
	// tell pollers to stop.
	resp.Complete = s.state == stateDone && s.runErr == nil &&
		(s.src == nil || !s.src.suspended.Load())
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	st := s.statsLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleMeta is GET /v1/meta.
func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	resp := MetaResponse{
		Name:              s.cfg.Meta.Name,
		PopulationDevices: s.cfg.Meta.PopulationDevices,
		DurationDays:      s.cfg.Meta.DurationDays,
		Queriers:          len(s.advertisers),
		State:             stateString(s.state),
		Resumed:           s.cfg.Scenario.Resume,
	}
	if s.state == stateDone && s.runErr != nil {
		resp.State = "failed"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleShutdown is POST /v1/shutdown: drain the run (final by default,
// suspend with {"final": false}) and report its summary.
func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// An empty body selects the default (final). Anything else that fails
	// to decode is refused before the irreversible drain: a corrupted
	// suspend request ({"final": false}) must not silently close out a run
	// that was meant to stay resumable.
	final := true
	var req ShutdownRequest
	if status, rerr := decodeBody(w, r, &req); rerr != nil && rerr != errEmptyBody {
		s.writeError(w, status, rerr)
		return
	}
	if req.Final != nil {
		final = *req.Final
	}
	run, err := s.Shutdown(r.Context(), final)
	resp := ShutdownResponse{State: "done"}
	if err != nil {
		resp.State, resp.Error = "failed", err.Error()
	}
	if run != nil {
		resp.EventsIngested = run.EventsIngested
		resp.EventsDropped = run.EventsDropped
		resp.Results = len(run.Results)
	}
	writeJSON(w, http.StatusOK, resp)
}
