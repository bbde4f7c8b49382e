package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/stream"
)

// The wrappers in this file are how a traced run times each layer from
// outside: each sits at a seam the code under test already exposes
// (checkpoint.FS, stream.FaultHook, http.Handler, http.RoundTripper,
// dataset.Source) and records a span per call. End-to-end passes install
// none of them.

// Span ids of the SUT child start here, so the two processes of a traced
// pass never hand out the same id.
const childSpanBase = 1 << 40

// hdrSpan is the header by which the generator's round-trip span reaches the
// server-side handler span it causes.
const hdrSpan = "X-Bench-Span"

func nowNs() int64 { return time.Now().UnixNano() }

// recorder keeps spans in memory until the pass ends.
type recorder struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder(base int64) *recorder { return &recorder{next: base} }

// newID reserves a span id before the span ends, for a span that must be
// named as a parent while it is still open.
func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// record adds a finished span under a fresh id.
func (r *recorder) record(name string, parent, req, start, end int64) {
	r.add(span{ID: r.newID(), Parent: parent, Req: req, Name: name, Start: start, End: end})
}

// timingFS wraps the checkpoint filesystem: every write, fsync, rename and
// whole-file read becomes a span under the span named by parent, and the
// counters behind the checkpoint.* metrics accumulate.
type timingFS struct {
	inner checkpoint.FS
	rec   *recorder
	// parent is the SUT's open phase span (run, recovery, resumed run),
	// which filesystem calls are attributed to.
	parent *atomic.Int64

	mu            sync.Mutex
	fsyncNs       []int64
	writeCalls    int
	bytesWritten  int64
	snapshotBytes int64
	// firstWALRead is when the first ReadFile of a wal- segment began:
	// recovery restores the snapshot chain before it and replays the log
	// after it.
	firstWALRead int64
}

func isSnapshotFile(name string) bool {
	b := filepath.Base(name)
	return strings.HasPrefix(b, "base-") || strings.HasPrefix(b, "delta-")
}

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (checkpoint.File, error) {
	f, err := t.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t, snapshot: isSnapshotFile(name)}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	start := nowNs()
	err := t.inner.Rename(oldpath, newpath)
	t.rec.record("checkpoint.rename", t.parent.Load(), 0, start, nowNs())
	return err
}

func (t *timingFS) Remove(name string) error { return t.inner.Remove(name) }

func (t *timingFS) ReadFile(name string) ([]byte, error) {
	start := nowNs()
	if strings.HasPrefix(filepath.Base(name), "wal-") {
		t.mu.Lock()
		if t.firstWALRead == 0 {
			t.firstWALRead = start
		}
		t.mu.Unlock()
	}
	b, err := t.inner.ReadFile(name)
	t.rec.record("checkpoint.read_file", t.parent.Load(), 0, start, nowNs())
	return b, err
}

func (t *timingFS) ReadDir(name string) ([]os.DirEntry, error) { return t.inner.ReadDir(name) }

func (t *timingFS) MkdirAll(path string, perm os.FileMode) error {
	return t.inner.MkdirAll(path, perm)
}

func (t *timingFS) SyncDir(dir string) error {
	start := nowNs()
	err := t.inner.SyncDir(dir)
	t.fsynced(start, nowNs())
	return err
}

func (t *timingFS) fsynced(start, end int64) {
	t.rec.record("checkpoint.fsync", t.parent.Load(), 0, start, end)
	t.mu.Lock()
	t.fsyncNs = append(t.fsyncNs, end-start)
	t.mu.Unlock()
}

func (t *timingFS) wrote(n int, snapshot bool, start, end int64) {
	t.rec.record("checkpoint.write", t.parent.Load(), 0, start, end)
	t.mu.Lock()
	t.writeCalls++
	t.bytesWritten += int64(n)
	if snapshot {
		t.snapshotBytes += int64(n)
	}
	t.mu.Unlock()
}

// timingFile times the calls that reach the disk; everything else passes
// through the embedded file.
type timingFile struct {
	checkpoint.File
	fs       *timingFS
	snapshot bool
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := nowNs()
	n, err := f.File.Write(p)
	f.fs.wrote(n, f.snapshot, start, nowNs())
	return n, err
}

func (f *timingFile) WriteAt(p []byte, off int64) (int, error) {
	start := nowNs()
	n, err := f.File.WriteAt(p, off)
	f.fs.wrote(n, f.snapshot, start, nowNs())
	return n, err
}

func (f *timingFile) Sync() error {
	start := nowNs()
	err := f.File.Sync()
	f.fs.fsynced(start, nowNs())
	return err
}

// hookStamper is the stream.FaultHook of a traced pass. It never injects a
// fault of its own (crash, when set, is the workload's crash hook and is
// consulted last); it turns the service's state transitions into spans:
// day-end→day-flushed is a day tick, the stretch up to each query-executed
// inside a tick is that query, and consecutive event-ingested stamps with
// nothing between them measure the ingest path per event. It also rebuilds
// the snapshot telemetry of stream.DurabilityStats from the transitions
// themselves, because stream-durable's first incarnation dies with its Run:
// a cadence tick stalls ingest from retention-advanced to delta-captured, and
// the part after the previous generation's commit was harvested
// (snapshot-committed, base-compacted) is the capture alone.
type hookStamper struct {
	rec    *recorder
	parent *atomic.Int64 // the SUT's open phase span
	crash  stream.FaultHook

	tickID     int64
	tickStart  int64
	queryStart int64
	lastEvent  int64

	retentionAt int64
	harvestedAt int64

	dayTickNs       []int64
	queryNs         []int64
	ingestNs        int64
	ingestN         int64
	captures        int
	compactions     int
	groupCommits    int
	maxStallNs      int64
	maxCaptureStall int64
}

func (h *hookStamper) hook(p stream.FaultPoint) error {
	now := nowNs()
	switch p {
	case stream.PointEventIngested:
		if h.lastEvent != 0 {
			h.ingestNs += now - h.lastEvent
			h.ingestN++
		}
		h.lastEvent = now
	case stream.PointDayEnd:
		h.tickID, h.tickStart, h.queryStart = h.rec.newID(), now, now
		h.lastEvent = 0
	case stream.PointQueryExecuted:
		h.rec.record("stream.query", h.tickID, 0, h.queryStart, now)
		h.queryNs = append(h.queryNs, now-h.queryStart)
		h.queryStart = now
	case stream.PointDayFlushed:
		h.rec.add(span{ID: h.tickID, Parent: h.parent.Load(), Name: "stream.day_tick", Start: h.tickStart, End: now})
		h.dayTickNs = append(h.dayTickNs, now-h.tickStart)
		h.tickID = 0
	case stream.PointRetentionAdvanced:
		h.retentionAt, h.harvestedAt = now, now
	case stream.PointSnapshotCommitted:
		h.harvestedAt = now
	case stream.PointBaseCompacted:
		h.harvestedAt = now
		h.compactions++
	case stream.PointDeltaCaptured:
		h.captures++
		h.maxStallNs = max(h.maxStallNs, now-h.retentionAt)
		h.maxCaptureStall = max(h.maxCaptureStall, now-h.harvestedAt)
		h.rec.record("stream.snapshot_stall", h.parent.Load(), 0, h.retentionAt, now)
	case stream.PointGroupCommit:
		h.groupCommits++
		// The flush sits between two events; the gap across it is not
		// per-event ingest cost.
		h.lastEvent = 0
	}
	if h.crash != nil {
		return h.crash(p)
	}
	return nil
}

// sourceStamper wraps the dataset.Source a run consumes and stamps its first
// Next call: a resumed service calls it only once restore and WAL replay are
// done, which is where recover_s ends.
type sourceStamper struct {
	dataset.Source
	firstNext int64
	onFirst   func(now int64) // optional
}

func (s *sourceStamper) Next() (events.Event, bool) {
	if s.firstNext == 0 {
		s.firstNext = nowNs()
		if s.onFirst != nil {
			s.onFirst(s.firstNext)
		}
	}
	return s.Source.Next()
}

// handlerStats are the samples the http.Handler wrapper collects.
type handlerStats struct {
	mu        sync.Mutex
	eventsNs  []int64
	resultsNs []int64
	requests  int
	status429 int
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// timingHandler wraps the server's /v1 handler: one span per request, child
// of the generator's round-trip span when the request names one.
func timingHandler(inner http.Handler, rec *recorder, parent int64, st *handlerStats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := nowNs()
		inner.ServeHTTP(sw, r)
		end := nowNs()
		name, samples := "", (*[]int64)(nil)
		switch r.URL.Path {
		case "/v1/events":
			name, samples = "serve.handler_events", &st.eventsNs
		case "/v1/results":
			name, samples = "serve.handler_results", &st.resultsNs
		default:
			return
		}
		p, req := parent, int64(0)
		if v, err := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64); err == nil {
			p, req = v, v
		}
		rec.record(name, p, req, start, end)
		st.mu.Lock()
		*samples = append(*samples, end-start)
		st.requests++
		if sw.status == http.StatusTooManyRequests {
			st.status429++
		}
		st.mu.Unlock()
	})
}

// timingTransport wraps the generator's http.RoundTripper: one span per
// attempt, whose id travels to the server in a header. Every connection has a
// transport of its own, so the request identifier the spans of one exchange
// share is the attempt's span id, which the pass's one recorder hands out.
// The span ends when the response headers arrive; the body of an ack is a
// few bytes that arrive with them.
type timingTransport struct {
	inner  http.RoundTripper
	rec    *recorder
	parent int64
}

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := t.rec.newID()
	r = r.Clone(r.Context())
	r.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	start := nowNs()
	resp, err := t.inner.RoundTrip(r)
	t.rec.add(span{ID: id, Parent: t.parent, Req: id, Name: "loadgen.roundtrip" + r.URL.Path, Start: start, End: nowNs()})
	return resp, err
}
