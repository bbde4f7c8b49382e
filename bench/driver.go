package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/serve"
	"repro/internal/workload"
)

// minPasses is the fewest passes a workload run is made of, however short the
// measuring time asked for.
const minPasses = 3

// bench is one workload run in the parent process: trace preparation, the
// batch reference, the passes (each in a SUT child) and, on a traced run, the
// traced pass, the ladder rungs and the probes.
type bench struct {
	w      *workloadSpec
	seed   uint64
	exe    string // this binary, re-executed as the SUT child
	outDir string

	ds        *dataset.Dataset
	days      [][]request // served workloads
	ref       *workload.Run
	refDigest string
	executeS  float64 // wall of the reference workload.Execute (rung 0)
}

// pass is what one SUT child (and, for served workloads, the load driven at
// it) produced.
type pass struct {
	metrics   map[string]float64 // end-to-end values of this pass
	layer     map[string]float64 // per-layer figures of this pass
	attempted int
	failed    int
	problems  []string // correctness failures
	spans     []span
}

// result is a whole workload run.
type result struct {
	w         *workloadSpec
	values    map[string][]float64 // end-to-end metric → one value per pass
	layer     map[string]float64   // traced run only
	attempted int
	failed    int
	problems  []string
}

func (r *result) ok() bool { return len(r.problems) == 0 && r.failed == 0 }

// median of an end-to-end metric over the passes.
func (r *result) median(name string) float64 { return summarize(r.values[name]).Median }

func (b *bench) served() bool { return b.w.Kind == kindBulk || b.w.Kind == kindPaced }

// prepareTrace generates the trace from the seed and cuts the served
// workloads' request bodies, and returns how long that took. Every served
// pass does it afresh (the result is the same each time), so that setup_s has
// one sample per pass like every other metric.
func (b *bench) prepareTrace() (seconds float64, err error) {
	t0 := time.Now()
	ds, err := genTrace(b.w, b.seed)
	if err != nil {
		return 0, err
	}
	b.ds = ds
	switch b.w.Kind {
	case kindBulk:
		b.days, err = prepareRequests(ds, bulkWriters, bulkBodyEvents)
	case kindPaced:
		b.days, err = prepareRequests(ds, 1, pacedBodyEvents)
	}
	return time.Since(t0).Seconds(), err
}

// prepare runs the batch reference the passes are checked against: the batch
// specification, fully sequential, on the very trace the SUT gets. Outside
// every timed region.
func (b *bench) prepare() error {
	if _, err := b.prepareTrace(); err != nil {
		return err
	}
	cfg := engineConfig(b.seed)
	cfg.Dataset, cfg.Parallelism = b.ds, 1
	t0 := time.Now()
	var err error
	b.ref, err = workload.Execute(cfg)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	b.executeS = time.Since(t0).Seconds()
	b.refDigest = b.ref.CanonicalDigest()
	return nil
}

// runChild starts a SUT child for the rung, waits for READY, calls drive (if
// any) with the address it serves on, then collects the REPORT.
func (b *bench) runChild(rung string, traced bool, drive func(addr string) error) (rep *sutReport, bootS float64, err error) {
	dir, err := os.MkdirTemp(b.outDir, "ckpt-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	cmd := exec.Command(b.exe, "-role", "sut", "-workload", b.w.Name,
		"-seed", strconv.FormatUint(b.seed, 10), "-rung", rung,
		"-traced="+strconv.FormatBool(traced), "-dir", dir)
	cmd.Stderr = os.Stderr
	cmd.Env = os.Environ()
	if b.served() && rung == rungPass {
		// The generator keeps one core; the server gets the rest.
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(max(1, runtime.NumCPU()-1)))
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	spawned := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	// Whatever happens below, the child is gone before this returns.
	defer func() {
		if err != nil {
			_ = cmd.Process.Kill()
		}
		if werr := cmd.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("sut child: %w", werr)
		}
	}()

	lines := bufio.NewReader(stdout)
	next := func(tag string, v any) error {
		line, err := lines.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("sut child ended before %s: %w", tag, err)
		}
		rest, ok := bytes.CutPrefix(line, []byte(tag+" "))
		if !ok {
			// The child reports a failure before READY as its REPORT.
			var failed sutReport
			if r, isRep := bytes.CutPrefix(line, []byte("REPORT ")); isRep && json.Unmarshal(r, &failed) == nil {
				return fmt.Errorf("sut child: %s", failed.Err)
			}
			return fmt.Errorf("sut child: expected %s, got %.80q", tag, line)
		}
		return json.Unmarshal(rest, v)
	}
	var ready readyMsg
	if err := next("READY", &ready); err != nil {
		return nil, 0, err
	}
	bootS = time.Since(spawned).Seconds()
	if drive != nil {
		if err := drive(ready.Addr); err != nil {
			return nil, bootS, err
		}
	}
	rep = &sutReport{}
	if err := next("REPORT", rep); err != nil {
		return nil, bootS, err
	}
	if rep.Err != "" {
		return nil, bootS, fmt.Errorf("sut child: %s", rep.Err)
	}
	return rep, bootS, nil
}

// runPass runs the workload itself once and turns what the child and the
// generator saw into this pass's metrics.
func (b *bench) runPass(traced bool) (*pass, error) {
	p := &pass{metrics: map[string]float64{}, attempted: 1}
	// What the load generator does before it can send: an in-process SUT
	// generates its own trace, inside its boot.
	prepareS := 0.0
	if b.served() {
		var err error
		if prepareS, err = b.prepareTrace(); err != nil {
			return nil, err
		}
	}
	rec := newRecorder(0)
	root := rec.newID()
	start := nowNs()

	var load *loadResult
	var depthMax float64
	var drive func(string) error
	if b.served() {
		drive = func(addr string) error {
			plan := loadPlan{base: "http://" + addr, days: b.days, lanes: 1}
			if b.w.Kind == kindBulk {
				plan.lanes = bulkWriters
			} else {
				plan.rate, plan.poll = pacedRate, true
			}
			var stopSampler func() float64
			if traced {
				plan.wrap = func(rt http.RoundTripper) http.RoundTripper {
					return &timingTransport{inner: rt, rec: rec, parent: root}
				}
				stopSampler = sampleQueueDepth(plan.base)
			}
			var err error
			load, err = runLoad(plan)
			if stopSampler != nil {
				depthMax = stopSampler()
			}
			if load != nil {
				p.attempted += load.Requests + load.Polls
				p.failed += load.Failed
			}
			return err
		}
	}
	rep, bootS, err := b.runChild(rungPass, traced, drive)
	if err != nil {
		return nil, err
	}
	p.layer = rep.Layer

	wallS := rep.WallS
	if load != nil {
		wallS = float64(load.EndNs-load.StartNs) / 1e9
	}
	m := p.metrics
	m["setup_s"] = prepareS + bootS
	m["events_per_s"] = float64(rep.Events) / wallS
	m["cpu_us_per_event"] = rep.CPUS / float64(rep.Events) * 1e6
	m["live_heap_mb"] = rep.HeapMB
	if b.w.Kind == kindDurable {
		p.layer["stream.recover_s"] = rep.RecoverS
		if rep.Fallbacks != 0 {
			p.problems = append(p.problems, fmt.Sprintf("recovery took %d fallbacks", rep.Fallbacks))
		}
	}
	if load != nil {
		if load.Events != len(b.ds.Events) || rep.Events != len(b.ds.Events) {
			p.problems = append(p.problems, fmt.Sprintf("sent %d, served %d of %d events",
				load.Events, rep.Events, len(b.ds.Events)))
		}
		if len(rep.FireDays) != rep.Results {
			p.problems = append(p.problems, fmt.Sprintf("the served run lists %d results, its run holds %d",
				len(rep.FireDays), rep.Results))
		}
		loadLayer(p.layer, load)
		if traced {
			p.layer["serve.queue_depth_max"] = depthMax
		}
	}
	if b.w.Kind == kindPaced {
		p.layer["loadgen.polls"] = float64(load.Polls)
		p.layer["loadgen.ack_slo_frac"] = float64(load.WithinLimit) / float64(load.Requests)
		if got := p.layer["loadgen.achieved_rps"]; got < 0.99*pacedRate {
			p.problems = append(p.problems, fmt.Sprintf("achieved %.1f req/s of %.0f offered", got, pacedRate))
		}
		// Every result that traffic releases must reach the poller; the
		// final day's are released by the shutdown, after it has stopped.
		lags, unseen := resultLags(rep.FireDays, load.SeenNs, load.DayFirstDueNs)
		if unseen > 0 {
			p.failed += unseen
			p.problems = append(p.problems, fmt.Sprintf("the poller never saw %d released results", unseen))
		}
		if len(lags) > 0 {
			p.layer["loadgen.result_lag_p50_ms"] = quantileOf(lags, 0.5)
			// A pass releases too few results for a p99 that more than one
			// sample decides: the highest percentile with ten beyond it.
			slices.Sort(lags)
			_, p.layer["loadgen.result_lag_tail_ms"] = tailPercentile(lags)
		}
	}
	if rep.Digest != b.refDigest {
		p.failed++
		p.problems = append(p.problems, "digest differs from workload.Execute at Parallelism 1")
	}
	if traced {
		rec.add(span{ID: root, Name: "pass." + b.w.Name, Start: start, End: nowNs()})
		// The child's root hangs under the pass, and so does everything
		// that named no parent of its own.
		for i := range rep.Spans {
			if rep.Spans[i].Parent == 0 {
				rep.Spans[i].Parent = root
			}
		}
		p.spans = append(rec.spans, rep.Spans...)
	}
	return p, nil
}

// loadLayer fills the loadgen.* figures of a served pass.
func loadLayer(layer map[string]float64, load *loadResult) {
	layer["loadgen.retries"] = float64(load.Retries)
	layer["loadgen.cpu_us_per_event"] = load.CPUS / float64(load.Events) * 1e6
	layer["loadgen.achieved_rps"] = float64(load.Requests) / (float64(load.LastAckNs-load.StartNs) / 1e9)
	layer["loadgen.ack_p50_ms"] = quantileOf(load.AckMs, 0.5)
	layer["loadgen.ack_p99_ms"] = quantileOf(load.AckMs, 0.99)
	layer["loadgen.ack_max_ms"] = quantileOf(load.AckMs, 1)
	if len(load.LateMs) > 0 {
		layer["loadgen.late_p99_ms"] = quantileOf(load.LateMs, 0.99)
	}
}

// sampleQueueDepth polls GET /v1/stats at 10 Hz (traced pass only) and
// returns a function that stops the sampling and reports the deepest
// admission queue seen.
func sampleQueueDepth(base string) (stop func() float64) {
	c := newClient(nil)
	quit, done := make(chan struct{}), make(chan float64)
	go func() {
		defer c.CloseIdleConnections()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		deepest := 0
		for {
			select {
			case <-quit:
				done <- float64(deepest)
				return
			case <-tick.C:
			}
			var st serve.Stats
			if status, body, err := exchange(c, http.MethodGet, base+"/v1/stats", nil); err == nil &&
				status == http.StatusOK && json.Unmarshal(body, &st) == nil {
				deepest = max(deepest, st.QueueDepth)
			}
		}
	}()
	return func() float64 { close(quit); return <-done }
}

// run measures the workload: its passes, fewer (but at least minPasses) if
// `seconds` of measuring time do not hold them, then the traced extras if
// asked for.
func (b *bench) run(seconds float64, traced bool) (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	// Only a traced run reads the reference again. With it gone and what it
	// left collected, this process's collector has nothing to do while a
	// child is measured.
	if !traced {
		b.ref = nil
	}
	runtime.GC()
	if b.served() {
		// One thread for the generator; the SUT child has the other cores.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	res := &result{w: b.w, values: map[string][]float64{}}
	want := minPasses
	if traced {
		want = 1 // the untraced half of the overhead comparison
	}
	started := time.Now()
	for n := 1; n <= want; n++ {
		p, err := b.runPass(false)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", n, err)
		}
		res.add(p)
		if n == minPasses {
			// The workload's own count, or as many as the measuring time holds
			// at this pace — less one if that is even, so that the median
			// is a pass.
			perPass := time.Since(started).Seconds() / minPasses
			want = min(max(minPasses, int(seconds/perPass)), b.w.Passes)
			want -= (want + 1) % 2
		}
	}
	if traced {
		if err := b.runTraced(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *result) add(p *pass) {
	for name, v := range p.metrics {
		r.values[name] = append(r.values[name], v)
	}
	r.attempted += p.attempted
	r.failed += p.failed
	r.problems = append(r.problems, p.problems...)
}

// rung is one step of the ladder a traced run measures in a child of its
// own, and the prefix of the figures it yields.
type rung struct{ name, prefix string }

// rungs returns the ladder steps that lie under this workload: the in-memory
// and WAL-only stream.Service under stream-durable, the in-process handler
// under serve-bulk (which serves the same trace, so the rungs of one seed
// line up). The other two workloads sit on no ladder.
func (b *bench) rungs() []rung {
	switch b.w.Kind {
	case kindDurable:
		return []rung{{rungMem, "stream.mem"}, {rungWAL, "stream.wal_only"}}
	case kindBulk:
		return []rung{{rungInproc, "serve.inproc"}}
	}
	return nil
}

// runTraced is the traced half of a traced run: one more pass with the seam
// wrappers on, the ladder rungs under this workload, the engine probes, and
// the figures only the parent can compute. It fills res.layer and writes the
// span file.
func (b *bench) runTraced(res *result) error {
	p, err := b.runPass(true)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	res.attempted += p.attempted
	res.failed += p.failed
	res.problems = append(res.problems, p.problems...)
	layer := p.layer
	layer["trace.overhead_frac"] = 1 - p.metrics["events_per_s"]/res.median("events_per_s")
	if written, ok := layer["checkpoint.bytes_written"]; ok {
		layer["checkpoint.write_amp"] = written / float64(len(events.MarshalEvents(b.ds.Events)))
	}

	spans := p.spans
	for _, rung := range b.rungs() {
		rep, _, err := b.runChild(rung.name, false, nil)
		if err != nil {
			return fmt.Errorf("rung %s: %w", rung.name, err)
		}
		res.attempted++
		if rep.Results != len(b.ref.Results) {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("rung %s released %d results, reference %d",
				rung.name, rep.Results, len(b.ref.Results)))
		}
		layer[rung.prefix+"_events_per_s"] = float64(rep.Events) / rep.WallS
		layer[rung.prefix+"_cpu_us_per_event"] = rep.CPUS / float64(rep.Events) * 1e6
	}
	rep, _, err := b.runChild(rungProbes, true, nil)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	for k, v := range rep.Layer {
		layer[k] = v
	}
	spans = append(spans, rep.Spans...)

	// Rung 0 and the counts that must repeat exactly for a seed.
	layer["workload.execute_s"] = b.executeS
	avg, _ := b.ref.BudgetStats()
	layer["privacy.budget_avg_eps"] = avg
	layer["privacy.denials"] = float64(b.ref.BudgetDenials())
	executed, reports := 0, 0
	for _, q := range b.ref.Results {
		if q.Executed {
			executed++
		}
		reports += q.Batch
	}
	layer["aggregation.queries_executed"] = float64(executed)
	layer["aggregation.rmsre_p50"] = quantileOf(b.ref.RMSREs(), 0.5)
	layer["core.reports"] = float64(reports)
	if b.served() {
		layer["serve.json_decode_ns_per_event"], err = b.jsonDecodeNs()
		if err != nil {
			return err
		}
	}
	res.layer = layer

	selfTimes(spans)
	return writeTrace(filepath.Join(b.outDir, "trace-"+b.w.Name+".json"), b.w.Name, b.seed, spans)
}

// jsonDecodeNs times json.Unmarshal of the workload's request bodies into
// the server's own wire type — the decode the front door does per request.
func (b *bench) jsonDecodeNs() (float64, error) {
	n := 0
	start := time.Now()
	for _, reqs := range b.days {
		for _, rq := range reqs {
			var body serve.IngestRequest
			if err := json.Unmarshal(rq.Body, &body); err != nil {
				return 0, err
			}
			n += len(body.Events)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// traceFile is the span file of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// SelfNs sums each span name's self time, the budget the spans add up to.
	SelfNs map[string]int64 `json:"self_ns"`
	Spans  []span           `json:"spans"`
}

func writeTrace(path, workload string, seed uint64, spans []span) error {
	tf := traceFile{Workload: workload, Seed: seed, SelfNs: map[string]int64{}, Spans: spans}
	for _, s := range spans {
		tf.SelfNs[s.Name] += s.Self
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// print writes the human-readable report of one workload run.
func (r *result) print(w io.Writer) {
	status := "ok"
	if !r.ok() {
		status = "FAILED"
	}
	fmt.Fprintf(w, "\n== %s: %s (operations attempted %d, failed %d)\n", r.w.Name, status, r.attempted, r.failed)
	for _, pr := range r.problems {
		fmt.Fprintf(w, "   problem: %s\n", pr)
	}
	fmt.Fprintf(w, "   %-34s %-9s %14s %14s %14s %3s\n", "end-to-end metric", "unit", "median", "q1", "q3", "n")
	for _, d := range endToEnd {
		s := summarize(r.values[d.Name])
		fmt.Fprintf(w, "   %-34s %-9s %14.6g %14.6g %14.6g %3d\n", d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "   %s per pass: %.6g\n", d.Name, r.values[d.Name])
	}
	if r.layer == nil {
		return
	}
	fmt.Fprintf(w, "   %-34s %-9s %14s\n", "per-layer metric (traced run)", "unit", "value")
	for _, defs := range [][]metricDef{perLayer, perLayerWhereRun} {
		for _, d := range defs {
			if v, ok := r.layer[d.Name]; ok {
				fmt.Fprintf(w, "   %-34s %-9s %14.6g\n", d.Name, d.Unit, v)
			}
		}
	}
}

// contractLine is the one-line JSON object the acceptance harness reads.
func (r *result) contractLine(traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.ok(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	if traced {
		for _, d := range perLayer {
			v, ok := r.layer[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return "", fmt.Errorf("traced run of %s has no value for %s", r.w.Name, d.Name)
			}
			out.Metrics[d.Name] = value{v, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			out.Metrics[d.Name] = value{r.median(d.Name), d.Unit}
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
