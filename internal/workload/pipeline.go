package workload

import (
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/stream"
)

// This file is the generate stage of the plan→generate→aggregate pipeline:
// per-conversion report generation fanned out across a bounded worker pool.
// The fan-out primitives (stream.FanOutWorkers, stream.Grouper) live in the
// streaming service, which multiplexes whole days of queries through them;
// the batch engine applies them one query batch at a time.
//
// Determinism contract: Run results are bit-identical for every Parallelism
// value. Two properties make that hold. First, work is partitioned by
// device — a device's conversions within a batch execute sequentially in
// batch order, because they contend for the same privacy filters and the
// order decides which epoch a denial lands on — while distinct devices share
// no mutable state (the events database is frozen, filters are per-device),
// so their schedules commute. Second, every per-conversion output lands in
// an index-addressed slot and the aggregate stage folds the slots in
// conversion order, so float accumulation order never depends on the
// schedule. Report generation itself draws no randomness; the run's noise
// streams (stats.Stream) are consumed only by the sequential aggregate
// stage, in query order.

// convOutput is one conversion's generate-stage result. The fold-relevant
// diagnostics arrive pre-reduced as core.ReportStats (per-worker scratch
// reuse means no full Diagnostics is materialized on the hot path).
type convOutput struct {
	report *core.Report
	stats  core.ReportStats
	truth  float64 // IPA-like path: the true report value
}

// generateReports runs the generate stage for one on-device batch via the
// shared device-grouped loop (stream.Generator, reused across the run's
// batches), outputs slotted by conversion index. A malformed request
// surfaces as an error instead of panicking a worker mid-batch.
func (r *Run) generateReports(reqs []*core.Request, batch []events.Event) ([]convOutput, error) {
	reports, stats, err := r.gen.Generate(r.fleet, reqs, batch, r.Config.Parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]convOutput, len(batch))
	for i := range out {
		out[i] = convOutput{report: reports[i], stats: stats[i]}
	}
	return out, nil
}

// trueValues runs the generate stage for one IPA-like batch: the central
// system computes every conversion's true report value from the full data.
func (r *Run) trueValues(reqs []*core.Request, batch []events.Event) []convOutput {
	truths := stream.TrueValues(r.db, reqs, batch, r.Config.Parallelism)
	out := make([]convOutput, len(batch))
	for i := range out {
		out[i].truth = truths[i]
	}
	return out
}
