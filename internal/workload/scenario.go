// Package workload enacts the paper's scenario-driven methodology (§6.1):
// advertisers observe conversions, request attribution reports over an
// attribution window with last-touch attribution, accumulate fixed-size
// batches, and run repeated single-advertiser summation queries through the
// trusted aggregation service, with the privacy budget ε calibrated for 5%
// error at 99% confidence. It runs the same workload under the three systems
// the evaluation compares — Cookie Monster, ARA-like (on-device) and
// IPA-like (off-device) — and collects the budget-consumption and
// query-accuracy metrics behind Figs. 4–7.
package workload

import (
	"fmt"
	"runtime"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
	"repro/internal/stream"
)

// System selects the budgeting system under test.
type System int

const (
	// CookieMonster is on-device budgeting with all IDP optimizations.
	CookieMonster System = iota
	// ARALike is on-device budgeting with only the inherent optimization
	// (participating devices pay full ε per window epoch).
	ARALike
	// IPALike is off-device (centralized) budgeting: one privacy.Ledger for
	// the whole population, a slot per (querier, epoch); a query is
	// rejected unless every epoch of its window has budget.
	IPALike
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case CookieMonster:
		return "cookie-monster"
	case ARALike:
		return "ara-like"
	case IPALike:
		return "ipa-like"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Systems lists all three, in the order the paper's figures plot them.
var Systems = []System{CookieMonster, ARALike, IPALike}

// Config parameterizes one workload run.
type Config struct {
	// Dataset is the generated workload.
	Dataset *dataset.Dataset
	// System selects the budgeting system.
	System System
	// EpochDays is the on-device epoch length (7 by default).
	EpochDays int
	// WindowDays is the attribution window (30 by default).
	WindowDays int
	// EpsilonG is the per-epoch budget capacity ε^G (per querier, per
	// device for on-device systems; per querier population-wide for
	// IPA-like).
	EpsilonG float64
	// Calibration derives each advertiser's requested ε from its batch
	// size and c̃ estimate. Ignored when FixedEpsilon > 0.
	Calibration privacy.Calibration
	// FixedEpsilon, when positive, uses the same requested ε for every
	// query. The knob sweeps of Fig. 4 use this so the budget curves
	// reflect data shape only.
	FixedEpsilon float64
	// Bias, when non-nil, runs the Appendix F side query with every
	// report (Fig. 7). Kappa ≤ 0 selects the paper's default of 10% of
	// each advertiser's query sensitivity.
	Bias *core.BiasSpec
	// Seed drives the aggregation noise.
	Seed uint64
	// Parallelism bounds the worker pool that fans each batch's
	// per-conversion report generation out across devices. 0 (the
	// default) selects GOMAXPROCS; 1 runs fully sequentially. Results
	// are bit-identical for every value — see stream/fanout.go for
	// the determinism contract.
	Parallelism int
	// MaxQueriesPerProduct truncates each product's query schedule
	// (0 = run every full batch).
	MaxQueriesPerProduct int
	// PolicyOverride substitutes a custom on-device loss policy (the
	// ablation experiments use the partial policies of core's ablation
	// ladder). Ignored for IPA-like. When nil, System picks the policy.
	PolicyOverride core.LossPolicy

	// DropLate selects the streaming service's drop-with-counter admission
	// policy (stream.LateDrop) for events whose day has already closed:
	// they are dropped and counted in Run.EventsDropped instead of
	// aborting the run. The batch engine has no arrival clock — it plans
	// over a materialized trace — so batch runs ignore this knob; the
	// hostile-traffic equivalence harness (internal/scenario) compares a
	// DropLate streaming run against a batch run over the pre-filtered
	// accepted event set.
	DropLate bool

	// CheckpointDir enables the streaming service's crash safety: a
	// write-ahead log of ingested events plus periodic snapshots in this
	// directory (DESIGN.md §8). Streaming mode only; ignored by the batch
	// engine, which is not a long-running service.
	CheckpointDir string
	// SnapshotEveryDays sets the snapshot cadence inside CheckpointDir
	// (0 = WAL only, with snapshots at run start/end).
	SnapshotEveryDays int
	// BaseEveryDeltas folds the delta chain into a fresh base after this
	// many deltas (0 = the stream default).
	BaseEveryDeltas int
	// GroupCommitEvents batches WAL fsyncs into group commits of this many
	// events (0 = sync only at snapshot rotations and at suspend or
	// completion).
	GroupCommitEvents int
	// DurableFS overrides the filesystem under the checkpoint store — the
	// disk-fault injection seam (checkpoint.NewFaultFS). nil selects the
	// real filesystem.
	DurableFS checkpoint.FS
	// Resume restarts a crashed streaming run from CheckpointDir's durable
	// state instead of starting fresh. The resumed run's results are
	// bit-identical to an uninterrupted run of the same configuration.
	Resume bool
	// FaultHook is the streaming service's crash-injection seam (test
	// instrumentation; see stream.FaultPoint). Nil in production.
	FaultHook stream.FaultHook

	// AdmitObserver and ResultObserver are the streaming service's
	// execution-only observation hooks (see stream.Config): the serving
	// layer (internal/serve) uses them to acknowledge requests once their
	// events are WAL-logged and applied, rebuild its per-device dedupe
	// cursors across recovery, and buffer released results for polling.
	// Streaming mode only; never part of the equivalence digests.
	AdmitObserver  func(ev events.Event, dropped bool)
	ResultObserver func(res stream.Result)
	// LiveSource marks the source handed to ExecuteSource as an
	// admission-filtered live feed: a resumed run must not skip a source
	// prefix by count, because the feed only delivers events the durable
	// state does not cover. Streaming mode only.
	LiveSource bool
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.EpochDays == 0 {
		c.EpochDays = 7
	}
	if c.WindowDays == 0 {
		c.WindowDays = 30
	}
	if c.EpsilonG == 0 {
		c.EpsilonG = 1
	}
	if c.Calibration == (privacy.Calibration{}) {
		c.Calibration = privacy.DefaultCalibration
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Dataset == nil:
		return fmt.Errorf("workload: nil dataset")
	case c.EpochDays <= 0 || c.WindowDays <= 0:
		return fmt.Errorf("workload: non-positive epoch or window length")
	case c.EpsilonG < 0:
		return fmt.Errorf("workload: negative capacity")
	case c.FixedEpsilon < 0:
		return fmt.Errorf("workload: negative fixed epsilon")
	case c.Parallelism < 0:
		return fmt.Errorf("workload: negative parallelism")
	case c.SnapshotEveryDays < 0:
		return fmt.Errorf("workload: negative snapshot cadence")
	case (c.Resume || c.SnapshotEveryDays > 0) && c.CheckpointDir == "":
		return fmt.Errorf("workload: resume/snapshot cadence without a checkpoint directory")
	}
	return nil
}

// QueryResult records one summation query's outcome — the one result type
// both engines fill.
type QueryResult = stream.Result

// queryPlan is one batch awaiting execution.
type queryPlan struct {
	advertiser dataset.Advertiser
	product    string
	batch      []events.Event // the B conversions, time-ordered
	fireDay    int            // day the batch filled
	seq        int            // chunk index within the stream (sort tie-break)
	epsilon    float64
}
