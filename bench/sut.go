package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The system under test runs in a child process of its own (`bench -role
// sut`), one per pass, so that CPU time, heap and RSS belong to one pass of
// one workload. The child talks to the parent over its standard output: one
// READY line when it accepts work, one REPORT line when it is done.

// Rungs a SUT child can run besides the workload's own pass. Each takes the
// workload's trace through one more layer than the one before (README, "The
// ladder").
const (
	rungPass   = "pass"   // the workload itself
	rungMem    = "mem"    // stream.Service, no checkpoint directory
	rungWAL    = "wal"    // stream.Service, WAL only
	rungInproc = "inproc" // serve handler called in-process, no sockets
	rungProbes = "probes" // engine micro-probes
)

// readyMsg is the child's READY line.
type readyMsg struct {
	Addr string `json:"addr,omitempty"`
}

// sutReport is the child's REPORT line.
type sutReport struct {
	Err    string `json:"err,omitempty"`
	Digest string `json:"digest,omitempty"`
	// Events, WallS and CPUS describe the timed region: events offered,
	// wall seconds, user+system CPU seconds of this process. A served child
	// leaves WallS to the generator, which owns that clock.
	Events    int     `json:"events"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	HeapMB    float64 `json:"heap_mb"`
	RecoverS  float64 `json:"recover_s"`
	Results   int     `json:"results"`
	Fallbacks int     `json:"fallbacks"`
	// FireDays[i] is the day result i fired on, as a served child's own
	// GET /v1/results lists it once the run is complete.
	FireDays []int `json:"fire_days,omitempty"`
	// Layer holds the per-layer figures this child could see: process
	// counters always, wrapper and run telemetry where they exist.
	Layer map[string]float64 `json:"layer"`
	Spans []span             `json:"spans,omitempty"`

	spent procClock // process counters over the timed regions so far
}

// procClock reads what the proc.* metrics and cpu_us_per_event are made of.
type procClock struct {
	cpuS       float64
	gcCPUS     float64
	mallocs    uint64
	allocBytes uint64
}

func readProc() procClock {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	return procClock{
		cpuS:       tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		gcCPUS:     gc[0].Value.Float64(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// since returns what the process spent between the reading `before` and c.
func (c procClock) since(before procClock) procClock {
	return procClock{c.cpuS - before.cpuS, c.gcCPUS - before.gcCPUS,
		c.mallocs - before.mallocs, c.allocBytes - before.allocBytes}
}

func (c procClock) plus(d procClock) procClock {
	return procClock{c.cpuS + d.cpuS, c.gcCPUS + d.gcCPUS, c.mallocs + d.mallocs, c.allocBytes + d.allocBytes}
}

// procLayer fills the proc.* figures for timed regions of n events in all,
// in which the process spent `spent`.
func procLayer(layer map[string]float64, spent procClock, n int) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	layer["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	layer["proc.allocs_per_event"] = float64(spent.mallocs) / float64(n)
	layer["proc.alloc_bytes_per_event"] = float64(spent.allocBytes) / float64(n)
	if spent.cpuS > 0 {
		layer["proc.gc_cpu_frac"] = spent.gcCPUS / spent.cpuS
	}
}

// liveHeapMB is HeapAlloc after forced collection, in MiB. Two cycles: the
// first only demotes sync.Pool contents (encoding/json parks its snapshot-
// sized buffers there), the second frees them.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// sut is one child's state.
type sut struct {
	w      *workloadSpec
	seed   uint64
	dir    string // scratch directory for checkpoints, removed by the parent
	traced bool
	out    *bufio.Writer
	rec    *recorder
	root   int64 // span every other span of this child hangs under
	// phase is the open phase span, the parent of what the seam wrappers
	// record meanwhile; the root between phases.
	phase atomic.Int64
}

// beginPhase opens a phase span; the returned function closes it at `end`.
func (s *sut) beginPhase(name string, start int64) (finish func(end int64)) {
	id := s.rec.newID()
	s.phase.Store(id)
	return func(end int64) {
		s.rec.add(span{ID: id, Parent: s.root, Name: name, Start: start, End: end})
		s.phase.Store(s.root)
	}
}

func sutMain(args []string) int {
	fs := flag.NewFlagSet("bench -role sut", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "trace seed")
	rung := fs.String("rung", rungPass, "what to run on the workload's trace")
	traced := fs.Bool("traced", false, "install the seam wrappers and record spans")
	dir := fs.String("dir", "", "scratch directory for checkpoints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench sut:", err)
		return 2
	}
	s := &sut{w: w, seed: *seed, dir: *dir, traced: *traced,
		out: bufio.NewWriter(os.Stdout), rec: newRecorder(childSpanBase)}
	s.root = s.rec.newID()
	s.phase.Store(s.root)
	start := nowNs()
	rep, err := s.run(*rung)
	if err != nil {
		rep = &sutReport{Err: err.Error()}
	}
	if s.traced {
		s.rec.add(span{ID: s.root, Name: "sut." + *rung, Start: start, End: nowNs()})
		rep.Spans = s.rec.spans
	}
	if err := s.emit("REPORT", rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench sut:", err)
		return 1
	}
	return 0
}

func (s *sut) emit(tag string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%s %s\n", tag, b)
	return s.out.Flush()
}

func (s *sut) ready(addr string) error { return s.emit("READY", readyMsg{Addr: addr}) }

func (s *sut) run(rung string) (*sutReport, error) {
	switch {
	case rung == rungProbes:
		return s.runProbes()
	case rung == rungMem:
		return s.runStream(false)
	case rung == rungWAL:
		return s.runStream(true)
	case rung == rungInproc:
		return s.runInproc()
	case s.w.Kind == kindBatch:
		return s.runBatch()
	case s.w.Kind == kindDurable:
		return s.runDurable()
	default:
		return s.runServed()
	}
}

// timed runs fn between two readings of the process clocks and adds the
// region to the report's timed-region fields; fn returns how many events the
// region covered.
func timed(rep *sutReport, fn func() (int, error)) error {
	before := readProc()
	t0 := time.Now()
	n, err := fn()
	wall := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	rep.spent = rep.spent.plus(readProc().since(before))
	rep.WallS += wall
	rep.Events += n
	rep.CPUS = rep.spent.cpuS
	procLayer(rep.Layer, rep.spent, rep.Events)
	return nil
}

// finish records what every run reports once it is complete: the live heap
// while the run's state is still reachable, then the digest.
func finish(rep *sutReport, run *workload.Run) {
	rep.HeapMB = liveHeapMB()
	rep.Digest = run.CanonicalDigest()
	rep.Results = len(run.Results)
	rep.Fallbacks = run.Durability.RecoveryFallbacks
	runtime.KeepAlive(run)
}

// runBatch is batch-criteo's pass: workload.Execute over the whole trace,
// batchRepeats times, each timed on its own and the times added up. Between
// two evaluations the previous run is dropped and collected, outside the
// clock: while it was left reachable, its 400 MiB made the evaluations after
// the first take 1.1 to 2.1 times as long, at random. The digest — which
// costs more than an evaluation on this population — is taken once, of the
// last run; every run computes the same thing.
func (s *sut) runBatch() (*sutReport, error) {
	ds, err := genTrace(s.w, s.seed)
	if err != nil {
		return nil, err
	}
	cfg := engineConfig(s.seed)
	cfg.Dataset = ds
	if err := s.ready(""); err != nil {
		return nil, err
	}
	rep := &sutReport{Layer: map[string]float64{}}
	var run *workload.Run
	for i := 0; i < batchRepeats; i++ {
		run = nil
		runtime.GC()
		endPhase := s.beginPhase("workload.execute", nowNs())
		err = timed(rep, func() (int, error) {
			run, err = workload.Execute(cfg)
			return len(ds.Events), err
		})
		if err != nil {
			return nil, err
		}
		endPhase(nowNs())
	}
	finish(rep, run)
	return rep, nil
}

// durability returns cfg with the checkpoint settings the durable workloads
// share, writing under this child's scratch directory.
func (s *sut) durability(cfg workload.Config, snapshots bool) workload.Config {
	cfg.CheckpointDir = s.dir
	cfg.GroupCommitEvents = groupCommitEvents
	if snapshots {
		cfg.SnapshotEveryDays = snapshotEveryDays
	}
	return cfg
}

// seams installs the traced pass's wrappers on cfg and returns them (nil,
// nil on an end-to-end pass, which runs bare).
func (s *sut) seams(cfg *workload.Config) (*timingFS, *hookStamper) {
	if !s.traced {
		return nil, nil
	}
	hs := &hookStamper{rec: s.rec, parent: &s.phase, crash: cfg.FaultHook}
	cfg.FaultHook = hs.hook
	var tfs *timingFS
	if cfg.CheckpointDir != "" {
		tfs = &timingFS{inner: checkpoint.OsFS{}, rec: s.rec, parent: &s.phase}
		cfg.DurableFS = tfs
	}
	return tfs, hs
}

// seamLayer turns the wrappers' samples into per-layer figures.
func seamLayer(layer map[string]float64, tfs *timingFS, hs *hookStamper) {
	if hs != nil && len(hs.dayTickNs) > 0 {
		layer["stream.day_tick_ms_p50"] = quantileOf(toFloats(hs.dayTickNs), 0.5) / 1e6
	}
	if hs != nil && len(hs.queryNs) > 0 {
		layer["stream.query_exec_us_p50"] = quantileOf(toFloats(hs.queryNs), 0.5) / 1e3
	}
	if hs != nil && hs.ingestN > 0 {
		layer["stream.ingest_ns_per_event"] = float64(hs.ingestNs) / float64(hs.ingestN)
	}
	// The rest exists only where the run had a checkpoint directory.
	if tfs == nil {
		return
	}
	layer["stream.snapshot_stall_ms_max"] = float64(hs.maxStallNs) / 1e6
	layer["stream.capture_stall_ms_max"] = float64(hs.maxCaptureStall) / 1e6
	layer["stream.snapshot_captures"] = float64(hs.captures)
	layer["stream.base_compactions"] = float64(hs.compactions)
	layer["stream.group_commits"] = float64(hs.groupCommits)
	var total int64
	for _, ns := range tfs.fsyncNs {
		total += ns
	}
	layer["checkpoint.fsyncs"] = float64(len(tfs.fsyncNs))
	layer["checkpoint.fsync_s_total"] = float64(total) / 1e9
	if len(tfs.fsyncNs) > 0 {
		layer["checkpoint.fsync_ms_p50"] = quantileOf(toFloats(tfs.fsyncNs), 0.5) / 1e6
	}
	layer["checkpoint.write_calls"] = float64(tfs.writeCalls)
	layer["checkpoint.bytes_written"] = float64(tfs.bytesWritten)
	layer["checkpoint.snapshot_bytes"] = float64(tfs.snapshotBytes)
}

func toFloats(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

var errCrash = errors.New("bench: injected crash")

// crashAt returns a fault hook that kills the service when event number n
// (1-based) has been ingested.
func crashAt(n int) stream.FaultHook {
	seen := 0
	return func(p stream.FaultPoint) error {
		if p == stream.PointEventIngested {
			if seen++; seen == n {
				return errCrash
			}
		}
		return nil
	}
}

// runDurable is stream-durable's pass: the trace goes through stream.Service
// with WAL, group commit and delta snapshots; the service is killed at the
// first event of crashDay, resumed from its checkpoint directory, and runs
// to the end of the trace. Throughput and CPU are timed up to the crash,
// recover_s from the resuming call to the first event the resumed service
// asks its source for.
func (s *sut) runDurable() (*sutReport, error) {
	ds, err := genTrace(s.w, s.seed)
	if err != nil {
		return nil, err
	}
	crashIdx := 0
	for crashIdx < len(ds.Events) && ds.Events[crashIdx].Day < crashDay {
		crashIdx++
	}
	if crashIdx == len(ds.Events) {
		return nil, fmt.Errorf("trace has no event on day %d to crash at", crashDay)
	}
	cfg := s.durability(engineConfig(s.seed), true)
	cfg.FaultHook = crashAt(crashIdx + 1)
	tfs, hs := s.seams(&cfg)
	first, second := ds.Stream(), &sourceStamper{Source: ds.Stream()}
	if err := s.ready(""); err != nil {
		return nil, err
	}

	rep := &sutReport{Layer: map[string]float64{}}
	endPhase := s.beginPhase("stream.run_to_crash", nowNs())
	err = timed(rep, func() (int, error) {
		if _, err := workload.ExecuteSource(cfg, first); !errors.Is(err, errCrash) {
			return 0, fmt.Errorf("run did not stop at the injected crash: %v", err)
		}
		return crashIdx + 1, nil
	})
	if err != nil {
		return nil, err
	}
	endPhase(nowNs())

	cfg.Resume = true
	cfg.FaultHook = nil
	if hs != nil {
		hs.crash, hs.lastEvent = nil, 0
		cfg.FaultHook = hs.hook
	}
	resumeAt := nowNs()
	endPhase = s.beginPhase("stream.recover", resumeAt)
	second.onFirst = func(now int64) {
		endPhase(now)
		endPhase = s.beginPhase("stream.resumed_run", now)
	}
	run, err := workload.ExecuteSource(cfg, second)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	endPhase(nowNs())
	rep.RecoverS = float64(second.firstNext-resumeAt) / 1e9
	finish(rep, run)
	rep.Layer["stream.queue_delay_us_avg"] = float64(run.AvgQueueDelay) / 1e3
	seamLayer(rep.Layer, tfs, hs)
	if tfs != nil && tfs.firstWALRead > resumeAt {
		rep.Layer["stream.restore_s"] = float64(tfs.firstWALRead-resumeAt) / 1e9
		rep.Layer["stream.replay_s"] = float64(second.firstNext-tfs.firstWALRead) / 1e9
	}
	return rep, nil
}

// runStream is rungs 1 and 2 of the ladder: the workload's trace through
// stream.Service, in memory or with the WAL alone.
func (s *sut) runStream(wal bool) (*sutReport, error) {
	ds, err := genTrace(s.w, s.seed)
	if err != nil {
		return nil, err
	}
	cfg := engineConfig(s.seed)
	if wal {
		cfg = s.durability(cfg, false)
	}
	src := ds.Stream()
	if err := s.ready(""); err != nil {
		return nil, err
	}
	rep := &sutReport{Layer: map[string]float64{}}
	var run *workload.Run
	err = timed(rep, func() (int, error) {
		run, err = workload.ExecuteSource(cfg, src)
		return len(ds.Events), err
	})
	if err != nil {
		return nil, err
	}
	// A rung is a measurement aid, not a pass: its digest is not taken (on
	// the Criteo-like trace that alone costs more than the rung), only the
	// counts that show the whole trace went through.
	rep.Results = len(run.Results)
	if run.EventsIngested != len(ds.Events) {
		return nil, fmt.Errorf("rung ingested %d of %d events", run.EventsIngested, len(ds.Events))
	}
	return rep, nil
}

// servedSUT is the served system under test of one child: the server, its
// handler, and — on a traced pass — the wrappers installed around them.
type servedSUT struct {
	srv     *serve.Server
	handler http.Handler
	tfs     *timingFS
	hs      *hookStamper
	st      *handlerStats
}

// newServer builds the served SUT for this child: a serve.Server over the
// trace's metadata, durable when the workload says so, and its handler —
// wrapped on a traced pass.
func (s *sut) newServer(meta dataset.Meta, durable bool) (*servedSUT, error) {
	cfg := engineConfig(s.seed)
	if durable {
		cfg = s.durability(cfg, true)
	}
	tfs, hs := s.seams(&cfg)
	srv, err := serve.NewServer(serve.Config{Scenario: cfg, Meta: meta})
	if err != nil {
		return nil, err
	}
	sv := &servedSUT{srv: srv, handler: srv.Handler(), tfs: tfs, hs: hs}
	if s.traced {
		sv.st = &handlerStats{}
		sv.handler = timingHandler(sv.handler, s.rec, s.root, sv.st)
	}
	return sv, nil
}

// handlerLayer turns the handler wrapper's samples into serve.* figures.
func handlerLayer(layer map[string]float64, st *handlerStats) {
	if st == nil {
		return
	}
	layer["serve.requests"] = float64(st.requests)
	layer["serve.status_429"] = float64(st.status429)
	if len(st.eventsNs) > 0 {
		layer["serve.handler_events_us_p50"] = quantileOf(toFloats(st.eventsNs), 0.5) / 1e3
		layer["serve.handler_events_us_p99"] = quantileOf(toFloats(st.eventsNs), 0.99) / 1e3
	}
	if len(st.resultsNs) > 0 {
		layer["serve.handler_results_us_p50"] = quantileOf(toFloats(st.resultsNs), 0.5) / 1e3
	}
}

// runServed is the pass of serve-bulk and serve-paced-queries: boot the
// server on a loopback port, tell the parent where, and serve until the
// generator's final shutdown completes the run.
func (s *sut) runServed() (*sutReport, error) {
	meta, err := traceMeta(s.w, s.seed)
	if err != nil {
		return nil, err
	}
	sv, err := s.newServer(meta, s.w.Kind == kindPaced)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: sv.handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	stopHTTP := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx) // the run is over; a straggling connection is the parent's to close
		<-serveErr
	}

	rep := &sutReport{Layer: map[string]float64{}}
	var run *workload.Run
	if err := s.ready(ln.Addr().String()); err != nil {
		return nil, err
	}
	// The timed region opens when the server accepts work and closes when
	// the run completes; it is idle until the generator's first request, so
	// its CPU is the CPU of serving the trace.
	err = timed(rep, func() (int, error) {
		select {
		case <-sv.srv.Done():
		case err := <-serveErr:
			serveErr <- err
			return 0, fmt.Errorf("http server stopped: %w", err)
		}
		run, err = sv.srv.Run()
		if err != nil {
			return 0, err
		}
		return run.EventsIngested, nil
	})
	// The listener goes first, the run's state stays: a handler still writing
	// its response (the shutdown's own) shares encoding/json's buffer pool
	// with the final snapshot and would keep that buffer alive at random.
	stopHTTP()
	if err != nil {
		return nil, err
	}
	finish(rep, run)
	if rep.FireDays, err = fireDays(sv.srv); err != nil {
		return nil, err
	}
	rep.Layer["stream.queue_delay_us_avg"] = float64(run.AvgQueueDelay) / 1e3
	rep.Layer["serve.duplicates"] = float64(sv.srv.StatsSnapshot().DuplicatesRejected)
	handlerLayer(rep.Layer, sv.st)
	seamLayer(rep.Layer, sv.tfs, sv.hs)
	// Between two events a served service waits for the network, so the gap
	// between them is not the cost of ingesting one.
	delete(rep.Layer, "stream.ingest_ns_per_event")
	return rep, nil
}

// fireDays asks the finished server, in-process, for every result it released
// and returns the day each fired on, by result index.
func fireDays(srv *serve.Server) ([]int, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/results", nil))
	var rr serve.ResultsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil || rec.Code != http.StatusOK {
		return nil, fmt.Errorf("results of the finished run: status %d: %v", rec.Code, err)
	}
	days := make([]int, len(rr.Results))
	for _, r := range rr.Results {
		if r.Index < 0 || r.Index >= len(days) {
			return nil, fmt.Errorf("result index %d among %d results", r.Index, len(days))
		}
		days[r.Index] = r.FireDay
	}
	return days, nil
}

// runInproc is rung 3: the same request bodies the loopback run sends, fed
// straight to the server's handler with httptest recorders — the front door
// without the sockets.
func (s *sut) runInproc() (*sutReport, error) {
	ds, err := genTrace(s.w, s.seed)
	if err != nil {
		return nil, err
	}
	ds = servable(ds)
	days, err := prepareRequests(ds, 1, bulkBodyEvents)
	if err != nil {
		return nil, err
	}
	sv, err := s.newServer(ds.Meta(), false)
	if err != nil {
		return nil, err
	}
	if err := s.ready(""); err != nil {
		return nil, err
	}
	rep := &sutReport{Layer: map[string]float64{}}
	var run *workload.Run
	err = timed(rep, func() (int, error) {
		for _, reqs := range days {
			for _, rq := range reqs {
				rec := httptest.NewRecorder()
				sv.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(rq.Body)))
				if rec.Code != http.StatusOK {
					return 0, fmt.Errorf("in-process ingest answered %d: %s", rec.Code, rec.Body.String())
				}
			}
		}
		run, err = sv.srv.Shutdown(context.Background(), true)
		return len(ds.Events), err
	})
	if err != nil {
		return nil, err
	}
	rep.Results = len(run.Results)
	if run.EventsIngested != len(ds.Events) {
		return nil, fmt.Errorf("rung ingested %d of %d events", run.EventsIngested, len(ds.Events))
	}
	return rep, nil
}
