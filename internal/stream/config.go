package stream

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
)

// System selects the budgeting system under test.
type System int

const (
	// CookieMonster is on-device budgeting with all IDP optimizations.
	CookieMonster System = iota
	// ARALike is on-device budgeting with only the inherent optimization
	// (participating devices pay full ε per window epoch).
	ARALike
	// IPALike is off-device (centralized) budgeting: one population-wide
	// privacy.Ledger admits each query only if every epoch of its window
	// has budget (privacy.Ledger.ChargeAll), and attribution is computed on
	// the full data.
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

// Config parameterizes one run of the paper's scenario (§6.1), on either
// front end: internal/workload.Execute replays Dataset, while New, ResumeFrom
// and internal/workload.ExecuteSource drain Source. The scenario knobs (system
// and loss policy, epoch length, window, budgets, calibration, bias, seed,
// query cap, late policy) define what a run computes and make up the
// checkpoint fingerprint; the rest tune execution, retention and durability.
type Config struct {
	// Dataset is a materialized trace, the batch front end's input.
	Dataset *dataset.Dataset
	// Source supplies the event stream and the dataset metadata, the
	// service's input.
	Source dataset.Source
	// System selects the budgeting system.
	System System
	// EpochDays is the on-device epoch length (7 by default).
	EpochDays int
	// WindowDays is the attribution window (30 by default).
	WindowDays int
	// EpsilonG is the per-epoch budget capacity ε^G (per querier, per
	// device for on-device systems; per querier population-wide for
	// IPA-like). 0 selects 1.
	EpsilonG float64
	// Calibration derives each advertiser's requested ε from its batch
	// size and c̃ estimate. Ignored when FixedEpsilon > 0.
	Calibration privacy.Calibration
	// FixedEpsilon, when positive, uses the same requested ε for every
	// query. The knob sweeps of Fig. 4 use this so the budget curves
	// reflect data shape only.
	FixedEpsilon float64
	// Bias, when non-nil, runs the Appendix F side query with every report
	// (Fig. 7). Kappa ≤ 0 selects the paper's default of 10% of each
	// advertiser's query sensitivity.
	Bias *core.BiasSpec
	// Seed drives the aggregation (and IPA-like) noise streams.
	Seed uint64
	// Parallelism bounds the worker pool for the multiplexed generate
	// stage. 0 selects GOMAXPROCS; 1 runs fully sequentially. Results are
	// bit-identical for every value (fanout.go).
	Parallelism int
	// MaxQueriesPerProduct truncates each product's query schedule
	// (0 = run every full batch).
	MaxQueriesPerProduct int
	// Policy is the on-device loss policy. nil selects the System's:
	// core.ARALikePolicy for ARA-like, core.CookieMonsterPolicy otherwise
	// (an IPA-like run's devices only hold requested marks). The ablation
	// experiments set the partial policies of core's ablation ladder.
	Policy core.LossPolicy
	// LatePolicy selects the service's admission rule for events whose day
	// has already closed (LateReject aborts, LateDrop drops with a
	// counter). It shapes which events a run admits, so it is part of the
	// checkpoint fingerprint. The batch front end plans over a materialized
	// trace and has no arrival order to violate, so it ignores the policy.
	LatePolicy LatePolicy

	// CheckpointDir enables crash safety: every ingested event is logged
	// to a write-ahead log in this directory before it is applied, day
	// boundaries commit snapshots per SnapshotEveryDays, and Serve writes
	// a final snapshot on completion (DESIGN.md §8). Empty disables
	// durability; the batch front end ignores it.
	CheckpointDir string
	// SnapshotEveryDays commits a snapshot generation (and rotates the WAL
	// to a fresh segment) at every N-th completed day while serving. 0
	// keeps only the WAL during the run — recovery then replays from the
	// stream's beginning.
	SnapshotEveryDays int
	// BaseEveryDeltas folds the delta chain into a fresh base after this
	// many deltas (default 8).
	BaseEveryDeltas int
	// GroupCommitEvents, when positive, batches WAL fsyncs into group
	// commits: after this many appended events the service flushes the log
	// and signals a background syncer instead of fsyncing inline, so the
	// ingest thread never waits on the disk. 0 syncs only at snapshot
	// rotations (cadence ticks, which fall on day boundaries) and at
	// suspend or completion.
	GroupCommitEvents int
	// DurableFS overrides the filesystem the checkpoint store and WAL
	// segments go through — the seam for internal/checkpoint's test-side
	// errfs and the benchmark's tracing filesystem. nil selects the real
	// filesystem. Like Parallelism, it cannot change what a run computes,
	// only whether its durable writes fail.
	DurableFS checkpoint.FS
	// Resume makes internal/workload.ExecuteSource restart a crashed run
	// from CheckpointDir's durable state (ResumeFrom) instead of starting
	// fresh. The resumed run is bit-identical to an uninterrupted one.
	Resume bool
	// FaultHook, when non-nil, observes every state transition (see
	// FaultPoint) and can return an error to simulate a crash there. Test
	// instrumentation; nil in production.
	FaultHook FaultHook

	// AdmitObserver, when non-nil, observes every admission decision the
	// service commits: it fires once per drained event, after the event's
	// WAL record was appended (live path) and the decision applied, with
	// dropped reporting a LateDrop rejection. It also fires for every event
	// carried by a restored snapshot, for every WAL record replayed during
	// ResumeFrom, and (with dropped=true) for every restored late-drop
	// mark — the latter carry only the admission identity (Device, Day,
	// ID), since a dropped event's payload never reaches durable state —
	// so an external admission layer (internal/serve) can rebuild its
	// per-device dedupe cursors from the durable state.
	// Execution-only: never part of the checkpoint fingerprint or the
	// equivalence digests. The observer runs on the service goroutine and
	// must not block.
	AdmitObserver func(ev events.Event, dropped bool)
	// ResultObserver, when non-nil, observes every released query result in
	// canonical order, including results restored from a snapshot and
	// results re-executed during WAL replay. Same execution-only contract
	// as AdmitObserver.
	ResultObserver func(res Result)
	// LiveSource marks the source as an admission-filtered live feed (a
	// network ingest tier) rather than a replayable trace: a resumed
	// service must not skip a source prefix by count, because the feed
	// delivers only events the durable state does not already cover — the
	// serving layer's (device, seq) dedupe guarantees it. Execution-only.
	LiveSource bool
}

// Resolve returns c with its zero values defaulted, or the reason c cannot
// run over a trace described by meta. It is the one place either is
// decided; the front ends' own requirements (a Dataset for the batch front
// end, a Source for the service) are theirs to check.
func (c Config) Resolve(meta dataset.Meta) (Config, error) {
	c = c.withDefaults()
	return c, c.validate(meta)
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
	if c.Policy == nil {
		if c.System == ARALike {
			c.Policy = core.ARALikePolicy{}
		} else {
			c.Policy = core.CookieMonsterPolicy{}
		}
	}
	if c.BaseEveryDeltas == 0 {
		c.BaseEveryDeltas = 8
	}
	return c
}

func (c Config) validate(meta dataset.Meta) error {
	switch {
	case c.EpochDays <= 0 || c.WindowDays <= 0:
		return fmt.Errorf("stream: non-positive epoch or window length")
	case c.EpsilonG < 0:
		return fmt.Errorf("stream: negative capacity")
	case math.IsNaN(c.EpsilonG) || math.IsInf(c.EpsilonG, 0):
		return fmt.Errorf("stream: non-finite capacity")
	case c.FixedEpsilon < 0:
		return fmt.Errorf("stream: negative fixed epsilon")
	case math.IsNaN(c.FixedEpsilon) || math.IsInf(c.FixedEpsilon, 0):
		return fmt.Errorf("stream: non-finite fixed epsilon")
	case c.Parallelism < 0:
		return fmt.Errorf("stream: negative parallelism")
	case c.SnapshotEveryDays < 0:
		return fmt.Errorf("stream: negative snapshot cadence")
	case (c.Resume || c.SnapshotEveryDays > 0) && c.CheckpointDir == "":
		return fmt.Errorf("stream: resume or snapshot cadence without a checkpoint directory")
	case c.BaseEveryDeltas < 0:
		return fmt.Errorf("stream: negative base compaction cadence")
	case c.GroupCommitEvents < 0:
		return fmt.Errorf("stream: negative group-commit threshold")
	}
	for _, adv := range meta.Advertisers {
		if err := adv.Validate(); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}
	return nil
}
