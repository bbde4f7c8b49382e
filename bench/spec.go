package main

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/workload"
)

// sizeFactor is the one documented factor by which every workload's size is
// scaled from the figures in the issue that defined this benchmark (300k
// users / 500k conversions, 100k devices, 50k users / 100k conversions). The
// full sizes need 30–50 s per workload and the acceptance runs allow about 35,
// reference run and set-up included, for at least three passes. 0.5 would fit
// too, but there serve-paced-queries' ~114k requested device-epochs sit
// exactly where the Go map holding them doubles its tables (7/8 of 2^17
// entries) and live_heap_mb jumps by 7% from one seed to the next. The shapes
// — advertiser skew, days, rates, body sizes, queries per querier — are
// unchanged.
const sizeFactor = 0.4

// The kinds of system under test. A workload's kind decides what its SUT
// child runs and whether the parent generates load.
const (
	kindBatch   = "batch"   // workload.Execute in-process
	kindDurable = "durable" // workload.ExecuteSource with a checkpoint dir, crash, resume
	kindBulk    = "bulk"    // serve.Server on loopback, closed loop
	kindPaced   = "paced"   // serve.Server with a checkpoint dir, open loop + poller
)

// Serving and durability settings shared by the workloads that use them.
const (
	snapshotEveryDays = 7
	groupCommitEvents = 256
	batchRepeats      = 4   // evaluations per batch-criteo pass
	crashDay          = 110 // stream-durable crashes at the first event of this day
	bulkWriters       = 2   // closed-loop connections
	bulkBodyEvents    = 512
	pacedBodyEvents   = 16
	pacedRate         = 600.0 // requests per second, open loop, one writer connection
	pollEveryMs       = 5
	ackLimitMs        = 10.0 // ack_slo_frac: acked within this long of the due time
	epsilonG          = 2.0  // per-epoch capacity, as cmd/measured defaults to
)

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	Name string
	Why  string
	Kind string
	// Passes is how many passes a run is made of when the measuring time
	// holds them: an odd number, so that the median is a pass; fewer for
	// batch-criteo, whose pass is four evaluations, and more for serve-bulk,
	// whose passes are half as long as the others'.
	Passes int
}

var workloads = []workloadSpec{
	{
		Name: "batch-criteo",
		Why:  "paper's evaluation path: events, core, privacy, attribution, aggregation do all the work; stream, checkpoint, serve do none",
		Kind: kindBatch, Passes: 3,
	},
	{
		Name: "stream-durable",
		Why:  "WAL, delta snapshots, crash and resume dominate; the engine runs 20 queries at one querier",
		Kind: kindDurable, Passes: 5,
	},
	{
		Name: "serve-bulk",
		Why:  "closed loop of 512-event bodies: per-event cost of the HTTP front door with engine and disk idle",
		Kind: kindBulk, Passes: 9,
	},
	{
		Name: "serve-paced-queries",
		Why:  "open loop of 16-event bodies at a fixed rate with a result poller: per-request cost, lock sharing, snapshot stalls as late acks",
		Kind: kindPaced, Passes: 5,
	},
}

func workloadByName(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric: its unit, direction and — for end-to-end
// metrics — the share of the parent's median by which it may worsen.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is every end-to-end metric, in print order; all four are defined
// on every workload. The issue that defined this benchmark named four more
// (ack_p50_ms, ack_slo_frac, result_lag_p50_ms, recover_s). Each read more
// than 10% apart between runs of the same code, or timed less than 2 s, and
// so — as that issue prescribes — is a per-layer figure now (loadgen.*,
// stream.recover_s), printed by the traced run of the workload that has it.
//
// The bounds are what the machine this was built on can hold (README.md,
// "Noise", has the runs). The heap is deterministic for a seed and differs by
// at most 2% between seeds. Everything timed moves with the machine: twelve
// runs of serve-bulk on one seed read 11% apart between their quartiles and
// 16% end to end, three runs ten minutes apart 25%, and two sets of ten runs
// 8% apart in their medians. The harness refuses a benchmark whose own spread
// crosses a bound, and demoting throughput and CPU per event too would leave
// nothing timed to gate, so they carry the widest bound the harness admits. A
// claim of a gain is made with paired runs, not against these bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.05},
}

// perLayer is every per-layer metric a traced run measures on every
// workload: the trace, the engine every workload runs, the SUT process. They
// are the ones BENCHMARK.json lists, because the harness wants every listed
// metric from every workload.
var perLayer = []metricDef{
	{Name: "dataset.gen_s", Unit: "s", Better: "lower"},
	{Name: "dataset.events", Unit: "count", Better: "higher"},
	{Name: "events.freeze_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "events.scan_ns_per_report", Unit: "ns", Better: "lower"},
	{Name: "core.report_ns", Unit: "ns", Better: "lower"},
	{Name: "core.report_q16_ns", Unit: "ns", Better: "lower"},
	{Name: "privacy.charge_window_ns", Unit: "ns", Better: "lower"},
	{Name: "attribution.attribute_ns", Unit: "ns", Better: "lower"},
	{Name: "aggregation.execute_us_per_query", Unit: "us", Better: "lower"},
	{Name: "privacy.budget_avg_eps", Unit: "fraction", Better: "lower"},
	{Name: "privacy.denials", Unit: "count", Better: "lower"},
	{Name: "aggregation.queries_executed", Unit: "count", Better: "higher"},
	{Name: "aggregation.rmsre_p50", Unit: "fraction", Better: "lower"},
	{Name: "core.reports", Unit: "count", Better: "higher"},
	{Name: "workload.execute_s", Unit: "s", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "proc.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_event", Unit: "bytes", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "fraction", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}

// perLayerWhereRun are the per-layer metrics of the layers only some
// workloads enter — stream, checkpoint, serve, the load generator, the ladder
// rungs. A traced run prints them for the workloads that exercise the layer
// and for no other: a cell that is not measured is left out, never filled in.
var perLayerWhereRun = []metricDef{
	{Name: "stream.mem_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "stream.mem_cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "stream.wal_only_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "stream.wal_only_cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "stream.day_tick_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "stream.query_exec_us_p50", Unit: "us", Better: "lower"},
	{Name: "stream.ingest_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "stream.queue_delay_us_avg", Unit: "us", Better: "lower"},
	{Name: "stream.snapshot_stall_ms_max", Unit: "ms", Better: "lower"},
	{Name: "stream.capture_stall_ms_max", Unit: "ms", Better: "lower"},
	{Name: "stream.snapshot_captures", Unit: "count", Better: "lower"},
	{Name: "stream.base_compactions", Unit: "count", Better: "lower"},
	{Name: "stream.group_commits", Unit: "count", Better: "lower"},
	{Name: "stream.recover_s", Unit: "s", Better: "lower"},
	{Name: "stream.restore_s", Unit: "s", Better: "lower"},
	{Name: "stream.replay_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.fsyncs", Unit: "count", Better: "lower"},
	{Name: "checkpoint.fsync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.fsync_s_total", Unit: "s", Better: "lower"},
	{Name: "checkpoint.write_calls", Unit: "count", Better: "lower"},
	{Name: "checkpoint.bytes_written", Unit: "bytes", Better: "lower"},
	{Name: "checkpoint.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "checkpoint.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.json_decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "serve.inproc_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.inproc_cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "serve.handler_events_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.handler_events_us_p99", Unit: "us", Better: "lower"},
	{Name: "serve.handler_results_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.requests", Unit: "count", Better: "lower"},
	{Name: "serve.status_429", Unit: "count", Better: "lower"},
	{Name: "serve.duplicates", Unit: "count", Better: "lower"},
	{Name: "serve.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "loadgen.achieved_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "loadgen.polls", Unit: "count", Better: "lower"},
	{Name: "loadgen.retries", Unit: "count", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.ack_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.ack_slo_frac", Unit: "fraction", Better: "higher"},
	{Name: "loadgen.result_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.result_lag_tail_ms", Unit: "ms", Better: "lower"},
}

// scaled applies sizeFactor to one of the issue's sizes.
func scaled(n int) int { return int(float64(n) * sizeFactor) }

// criteoConfig is the Criteo-like generator configuration at the given
// population. DensitySpread is 0, the one departure from the generator's
// defaults that is not a size: the acceptance check compares runs of
// different seeds, and with the default log-normal spread a handful of draws
// — the largest advertisers' impression densities — put the event count of
// seeds 1–10 anywhere from 362k to 460k for the same 250k conversions, so
// that events_per_s would spread 16% between seeds on the trace alone. The
// median density is raised instead, to the defining issue's 0.84 impressions
// per conversion.
func criteoConfig(seed uint64, users, conversions int) dataset.CriteoConfig {
	c := dataset.DefaultCriteoConfig()
	c.Seed = seed
	c.Users = users
	c.TotalConversions = conversions
	c.Advertisers = 100
	c.ZipfExponent = 1.1
	c.MinBatch = 350
	c.ImpressionsPerConversion = 0.84
	c.DensitySpread = 0
	return c
}

// syntheticConfig is the single-querier day-sliced trace of stream-durable
// and serve-bulk.
func syntheticConfig(seed uint64) dataset.SyntheticConfig {
	c := dataset.DefaultSyntheticConfig()
	c.Seed = seed
	c.Population = scaled(100000)
	c.BatchSize = scaled(2000)
	c.DurationDays = 120
	c.ImpressionsPerDay = 0.1
	return c
}

// genTrace generates the workload's trace from the seed, in (Day, ID) order.
// For the served workloads, events of advertisers below the minimum batch
// are dropped: such an advertiser is not a registered querier, and the server
// answers its events 400 unknown-advertiser (see README, "Known defects").
// The engine never reads them either, so the batch reference is unchanged.
func genTrace(w *workloadSpec, seed uint64) (*dataset.Dataset, error) {
	switch w.Kind {
	case kindBatch:
		return dataset.Criteo(criteoConfig(seed, scaled(300000), scaled(500000)))
	case kindDurable, kindBulk:
		src, err := dataset.NewSynthetic(syntheticConfig(seed))
		if err != nil {
			return nil, err
		}
		return dataset.Materialize(src), nil
	case kindPaced:
		ds, err := dataset.Criteo(criteoConfig(seed, scaled(50000), scaled(100000)))
		if err != nil {
			return nil, err
		}
		return servable(ds), nil
	}
	return nil, fmt.Errorf("unknown workload kind %q", w.Kind)
}

// engineConfig is the scenario every run of a workload executes, reference
// and SUT alike; callers add the dataset, parallelism and durability.
func engineConfig(seed uint64) workload.Config {
	return workload.Config{System: workload.CookieMonster, EpsilonG: epsilonG, Seed: seed}
}
