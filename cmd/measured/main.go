// Command measured runs the measurement service as a network server
// (DESIGN.md §13). Its speed and memory are measured from outside, by
// `bash bench/run.sh` (the serve-bulk and serve-paced-queries workloads of
// BENCHMARK.json), not by a subcommand here.
//
// Usage:
//
//	measured serve  -addr HOST:PORT (-trace FILE | -workload NAME | -population N -duration D) [-pprof-addr HOST:PORT] [scenario/durability flags]
//	measured chaos  (-trace FILE | -workload NAME) [-senders N -batch B -apply-delay D -shed-delay D -out REPORT_chaos.json]
//	measured export -workload NAME [-out FILE]
//
// serve boots an HTTP/JSON front door over the streaming service: devices
// POST impression/conversion events to /v1/events, queriers register on
// /v1/queries and poll /v1/results. SIGTERM (and SIGINT) trigger a
// graceful drain: the bounded ingest queue empties through the service,
// the group-commit syncer flushes, and — when -checkpoint-dir is set — a
// final snapshot generation commits so -resume continues the run exactly
// where it stopped. -pprof-addr (off by default) serves net/http/pprof's
// profiles on a listener of its own, never on the API's.
//
// chaos checks the serving path under manufactured network trouble
// (DESIGN.md §14): it boots an in-process server per profile — clean,
// lossy, hostile, and a throttled server driven at 2x capacity with and
// without overload shedding — runs the retrying load generator
// (internal/loadgen) through a fault-injecting transport
// (internal/netfault), and writes the observed rows (sustained RPS,
// accepted-request p99, shed rate, retry amplification) to a
// REPORT_chaos.json file.
//
// export writes a cataloged figure workload (internal/figures) as a
// trace file — the workload interchange format serve and chaos consume.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/figures"
	"repro/internal/loadgen"
	"repro/internal/netfault"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "chaos":
		err = cmdChaos(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "measured: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "measured: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  measured serve  -addr HOST:PORT (-trace FILE | -workload NAME | -population N -duration D) [flags]
  measured chaos  (-trace FILE | -workload NAME) [flags]
  measured export -workload NAME [-out FILE]`)
}

// scenarioFlags registers the workload-scenario and durability flags every
// server (in-process or standalone) shares, mirroring cmd/cookiemonster.
type scenarioFlags struct {
	system        *string
	epsilonG      *float64
	seed          *uint64
	parallel      *int
	epochDays     *int
	windowDays    *int
	checkpointDir *string
	snapshotEvery *int
	groupCommit   *int
	resume        *bool
}

func registerScenarioFlags(fs *flag.FlagSet) *scenarioFlags {
	return &scenarioFlags{
		system:   fs.String("system", "cookie-monster", "budgeting system: cookie-monster, ara-like or ipa-like"),
		epsilonG: fs.Float64("epsilon-g", 2, "per-epoch budget capacity"),
		seed:     fs.Uint64("seed", 7, "aggregation noise seed"),
		parallel: fs.Int("parallel", 0,
			"report-generation workers per batch (0 = GOMAXPROCS, 1 = sequential; results are identical)"),
		epochDays:  fs.Int("epoch-days", 0, "on-device epoch length in days (0 = default 7)"),
		windowDays: fs.Int("window-days", 0, "attribution window in days (0 = default 30)"),
		checkpointDir: fs.String("checkpoint-dir", "",
			"make the run crash-safe: persist a write-ahead log and snapshots under this directory"),
		snapshotEvery: fs.Int("snapshot-every", 7,
			"snapshot cadence in days inside -checkpoint-dir (0 = WAL only)"),
		groupCommit: fs.Int("group-commit-interval", 0,
			"batch WAL fsyncs inside -checkpoint-dir: fsync after this many appended events "+
				"(0 = only at snapshot rotations and at suspend or completion)"),
		resume: fs.Bool("resume", false,
			"recover the run from -checkpoint-dir's durable state and continue serving"),
	}
}

func (sf *scenarioFlags) config() (workload.Config, error) {
	cfg := workload.Config{
		EpsilonG:          *sf.epsilonG,
		Seed:              *sf.seed,
		Parallelism:       *sf.parallel,
		EpochDays:         *sf.epochDays,
		WindowDays:        *sf.windowDays,
		CheckpointDir:     *sf.checkpointDir,
		SnapshotEveryDays: *sf.snapshotEvery,
		GroupCommitEvents: *sf.groupCommit,
		Resume:            *sf.resume,
	}
	if cfg.CheckpointDir == "" {
		cfg.SnapshotEveryDays = 0
		cfg.GroupCommitEvents = 0
	}
	switch *sf.system {
	case "cookie-monster":
		cfg.System = workload.CookieMonster
	case "ara-like":
		cfg.System = workload.ARALike
	case "ipa-like":
		cfg.System = workload.IPALike
	default:
		return cfg, fmt.Errorf("unknown -system %q (want cookie-monster, ara-like or ipa-like)", *sf.system)
	}
	// The scenario's own refusals (a non-finite budget, -resume without
	// -checkpoint-dir) before any trace is loaded; the trace's advertisers
	// are checked when the run starts.
	_, err := cfg.Resolve(dataset.Meta{})
	return cfg, err
}

// loadMeta resolves the served trace identity from -trace / -workload /
// explicit population+duration flags. A trace or cataloged workload also
// pre-registers its queriers; the bare form leaves registration to the
// API. The dataset return is non-nil only when events are available
// locally (chaos needs them; serve only needs the metadata).
func loadMeta(tracePath, workloadName, name string, population, duration int) (dataset.Meta, *dataset.Dataset, error) {
	switch {
	case tracePath != "" && workloadName != "":
		return dataset.Meta{}, nil, fmt.Errorf("-trace and -workload are mutually exclusive")
	case tracePath != "":
		ds, err := serve.OpenTrace(tracePath)
		if err != nil {
			return dataset.Meta{}, nil, err
		}
		return ds.Meta(), ds, nil
	case workloadName != "":
		w, err := figures.ByName(workloadName)
		if err != nil {
			return dataset.Meta{}, nil, err
		}
		cfg, err := w.Config()
		if err != nil {
			return dataset.Meta{}, nil, err
		}
		return cfg.Dataset.Meta(), cfg.Dataset, nil
	case population > 0 && duration > 0:
		if name == "" {
			name = "served"
		}
		return dataset.Meta{Name: name, PopulationDevices: population, DurationDays: duration}, nil, nil
	default:
		return dataset.Meta{}, nil, fmt.Errorf("need -trace, -workload, or -population and -duration")
	}
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("measured serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	tracePath := fs.String("trace", "", "trace file whose header fixes the trace identity and queriers")
	workloadName := fs.String("workload", "", "cataloged figure workload to take the trace identity from")
	name := fs.String("name", "", "trace name when -population/-duration are given")
	population := fs.Int("population", 0, "device population (with -duration, instead of -trace/-workload)")
	duration := fs.Int("duration", 0, "trace duration in days (with -population)")
	ingestBuffer := fs.Int("ingest-buffer", 0, "bounded admission queue size (0 = 4096); overflow returns 429")
	shedDelay := fs.Duration("shed-delay", 0,
		"overload shedding threshold: 429 + Retry-After when the admission queue's head has waited longer (0 = disabled)")
	readTimeout := fs.Duration("read-timeout", 5*time.Second,
		"HTTP read-header timeout, the slow-loris guard (0 = none)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute,
		"HTTP keep-alive idle timeout (0 = none)")
	pprofAddr := fs.String("pprof-addr", "",
		"serve net/http/pprof under /debug/pprof/ on this address, a listener apart from the API's (empty = off)")
	signalFinal := fs.Bool("signal-final", false,
		"on SIGTERM/SIGINT, close out the trace (flush the in-progress day and finish the run) "+
			"instead of suspending into a resumable checkpoint")
	sf := registerScenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scenario, err := sf.config()
	if err != nil {
		return err
	}
	meta, _, err := loadMeta(*tracePath, *workloadName, *name, *population, *duration)
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(serve.Config{
		Scenario: scenario, Meta: meta, IngestBuffer: *ingestBuffer, ShedDelay: *shedDelay,
	})
	if err != nil {
		return err
	}

	if *pprofAddr != "" {
		pl, err := servePprof(*pprofAddr)
		if err != nil {
			return err
		}
		defer pl.Close()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// No WriteTimeout: /v1/shutdown legitimately blocks for the drain, and
	// ingest acks wait on applied durability. Slow-loris protection is the
	// read-header timeout; idle keep-alive conns are reaped separately.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	// Signals are caught before the startup line is printed, so a SIGTERM
	// sent as soon as it appears drains instead of killing the process.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	fmt.Printf("measured: serving %s (%d devices, %d days, %d queriers) on http://%s\n",
		meta.Name, meta.PopulationDevices, meta.DurationDays, len(meta.Advertisers), ln.Addr())
	select {
	case sig := <-sigCh:
		mode := "suspending (resumable)"
		if *signalFinal {
			mode = "closing out the trace"
		}
		fmt.Printf("measured: %v: draining ingest queue, %s\n", sig, mode)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		run, err := srv.Shutdown(ctx, *signalFinal)
		_ = hs.Shutdown(ctx)
		if err != nil {
			return fmt.Errorf("drain failed: %w", err)
		}
		printSummary(run, srv.StatsSnapshot())
		return nil
	case <-srv.Done():
		// The run finished through the API (/v1/shutdown or end of trace).
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		run, err := srv.Run()
		if err != nil {
			return fmt.Errorf("run failed: %w", err)
		}
		printSummary(run, srv.StatsSnapshot())
		return nil
	case err := <-httpDone:
		return fmt.Errorf("http server: %w", err)
	}
}

// servePprof serves net/http/pprof's handlers on a listener of their own at
// addr, on a mux of their own (the API handler never routes /debug/pprof/),
// until the returned listener is closed.
func servePprof(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(ln, mux) }()
	fmt.Printf("measured: pprof at http://%s/debug/pprof/\n", ln.Addr())
	return ln, nil
}

func printSummary(run *workload.Run, st serve.Stats) {
	if run == nil {
		fmt.Printf("measured: stopped before any run started\n")
		return
	}
	fmt.Printf("measured: run complete: %d events ingested, %d late-dropped, %d results released, "+
		"%d duplicates rejected, %d requests backpressured\n",
		run.EventsIngested, run.EventsDropped, len(run.Results),
		st.DuplicatesRejected, st.Backpressured)
}

// chaosProfile is one measured network regime: a client-side fault spec,
// an optional server-side listener spec, an optional per-event apply
// throttle fixing the service's capacity, a shedding threshold, and the
// pacing as a multiple of that capacity.
type chaosProfile struct {
	name      string
	client    *netfault.Spec
	listener  *netfault.Spec
	apply     time.Duration
	shedDelay time.Duration
	overload  float64
}

// chaosRow is one REPORT_chaos.json row: the load generator's report plus
// the server's admission telemetry and the fault layer's own books.
type chaosRow struct {
	Profile string `json:"profile"`
	*loadgen.Report
	Server    serve.Stats    `json:"server"`
	Transport netfault.Stats `json:"transport"`
}

func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("measured chaos", flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace file to send")
	workloadName := fs.String("workload", "", "cataloged figure workload to send")
	senders := fs.Int("senders", 6, "concurrent sender goroutines")
	batch := fs.Int("batch", 128, "events per ingest request")
	applyDelay := fs.Duration("apply-delay", 400*time.Microsecond,
		"per-event apply throttle for the overload profiles; fixes the server's capacity")
	shedDelay := fs.Duration("shed-delay", 25*time.Millisecond,
		"shedding threshold for the overload-shed profile")
	out := fs.String("out", "REPORT_chaos.json", "chaos report path (empty = don't write)")
	sf := registerScenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, ds, err := loadMeta(*tracePath, *workloadName, "", 0, 0)
	if err != nil {
		return err
	}
	if ds == nil || len(ds.Events) == 0 {
		return fmt.Errorf("chaos needs a trace with events (-trace or -workload)")
	}
	scenario, err := sf.config()
	if err != nil {
		return err
	}

	seed := *sf.seed
	lossy := netfault.Spec{
		Seed: seed*0x9e3779b97f4a7c15 + 1, DialError: 0.02, ResponseDrop: 0.03,
		DuplicateSend: 0.02, SendLatency: 0.2, MaxLatency: time.Millisecond,
	}
	hostileClient := netfault.Spec{
		Seed: seed*0x9e3779b97f4a7c15 + 2, DialError: 0.05, ResponseDrop: 0.06,
		DuplicateSend: 0.05, SendLatency: 0.3, MaxLatency: 2 * time.Millisecond,
	}
	hostileWire := netfault.Spec{
		Seed: seed*0x517cc1b727220a95 + 3, ConnReset: 0.08, SlowConn: 0.03,
	}
	profiles := []chaosProfile{
		{name: "clean"},
		{name: "lossy", client: &lossy},
		{name: "hostile", client: &hostileClient, listener: &hostileWire},
		{name: "overload-noshed", apply: *applyDelay, overload: 2},
		{name: "overload-shed", apply: *applyDelay, overload: 2, shedDelay: *shedDelay},
	}

	rows := make([]*chaosRow, 0, len(profiles))
	for _, p := range profiles {
		row, err := runChaosProfile(ds, scenario, p, *senders, *batch, seed)
		if err != nil {
			return fmt.Errorf("profile %s: %w", p.name, err)
		}
		fmt.Printf("measured chaos: %-16s %7.1f req/s  accepted p99 %8.3fms  shed %5d  amplification %.3fx  dups %d\n",
			row.Profile, row.SustainedRPS, row.AcceptedP99Millis,
			row.Server.Shed, row.RetryAmplification, row.Duplicates)
		// The bench is self-checking: a give-up means the retry discipline
		// wedged, and a shed response without Retry-After breaks the
		// overload contract. Either fails the run, not just the numbers.
		if row.GiveUps != 0 {
			return fmt.Errorf("profile %s: %d give-ups (by sender: %v)", p.name, row.GiveUps, row.GiveUpsBySender)
		}
		if row.RetryAfterMissing != 0 {
			return fmt.Errorf("profile %s: %d pushback responses lacked Retry-After", p.name, row.RetryAfterMissing)
		}
		rows = append(rows, row)
	}
	if *out != "" {
		data, err := json.MarshalIndent(struct {
			Rows []*chaosRow `json:"rows"`
		}{Rows: rows}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("measured chaos: wrote %s\n", *out)
	}
	return nil
}

// runChaosProfile boots a fresh in-process server for one profile, runs
// the load generator through it, closes the run out directly (no HTTP, so
// shutdown never tangles with the fault layer), and collects the row.
func runChaosProfile(ds *dataset.Dataset, scenario workload.Config, p chaosProfile, senders, batch int, seed uint64) (*chaosRow, error) {
	if p.apply > 0 {
		delay := p.apply
		scenario.FaultHook = func(pt stream.FaultPoint) error {
			if pt == stream.PointEventIngested {
				time.Sleep(delay)
			}
			return nil
		}
	}
	meta := ds.Meta()
	meta.Advertisers = nil // loadgen registers them
	srv, err := serve.NewServer(serve.Config{Scenario: scenario, Meta: meta, ShedDelay: p.shedDelay})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveLn := net.Listener(ln)
	if p.listener != nil {
		serveLn = netfault.WrapListener(ln, *p.listener)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = hs.Serve(serveLn) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()

	var client *http.Client
	var tr *netfault.Transport
	if p.client != nil {
		tr = netfault.NewTransport(nil, *p.client)
		client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	// Overload pacing: the apply throttle fixes capacity in events/s, and
	// the pacer drives the aggregate request rate at a multiple of it.
	rps := 0.0
	if p.overload > 0 && p.apply > 0 {
		rps = p.overload * float64(time.Second) / float64(p.apply) / float64(batch)
	}
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:    "http://" + ln.Addr().String(),
		Dataset:   ds,
		Senders:   senders,
		RPS:       rps,
		BatchSize: batch,
		Seed:      seed,
		Client:    client,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := srv.Shutdown(ctx, true); err != nil {
		return nil, fmt.Errorf("closing out the run: %w", err)
	}
	row := &chaosRow{Profile: p.name, Report: rep, Server: srv.StatsSnapshot()}
	if tr != nil {
		row.Transport = tr.Stats()
	}
	return row, nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("measured export", flag.ExitOnError)
	workloadName := fs.String("workload", "", "cataloged figure workload to export")
	out := fs.String("out", "", "trace file path (default NAME.trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workloadName == "" {
		return fmt.Errorf("export needs -workload (one of the figures catalog names)")
	}
	w, err := figures.ByName(*workloadName)
	if err != nil {
		return err
	}
	cfg, err := w.Config()
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = *workloadName + ".trace"
	}
	if err := serve.WriteTraceFile(path, cfg.Dataset.Stream()); err != nil {
		return err
	}
	fmt.Printf("measured export: wrote %s (%d events, %d devices, %d days, %d queriers)\n",
		path, len(cfg.Dataset.Events), cfg.Dataset.PopulationDevices,
		cfg.Dataset.DurationDays, len(cfg.Dataset.Advertisers))
	return nil
}
