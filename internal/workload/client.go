package workload

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stream"
)

// This file is the thin-client face of the online measurement service: the
// scenario vocabulary (Config, System, QueryResult, Run and its metrics)
// stays here, while internal/stream owns planning, ingestion, day-clocked
// scheduling and multiplexed execution. ExecuteSource translates a workload
// configuration into a service configuration, drives the service over an
// event source, and wraps the service's run in the same Run type Execute
// produces — so every experiment harness and metric works identically on
// either front end. The fleet comes across as it is: each device's ledger
// holds its budget slots and, beside them, the requested marks the Fig. 4
// metrics read, so there is no accounting to copy.
//
// Both front ends plan with stream.Engine's planner and flush one
// super-batch per fire day. What Execute (run.go) does differently is only
// the store, retention and durability: it materializes the trace into a
// frozen store and replays it, with no retention and no durability. The
// streaming service is held equivalent to Execute bit for bit by the tests
// in internal/stream, and the shared planner to an independent global-sort
// statement of the schedule by TestPlannerMatchesReferencePlan.

// ExecuteSource runs the workload's scenario over an event source — a
// materialized dataset's Stream, or a generator-backed source whose trace is
// never held in memory — through the streaming service. Results are
// bit-identical to Execute over the same trace, at any Parallelism. The
// scenario's population, duration and advertisers come from the source's
// metadata; a nil cfg.Dataset is replaced by a metadata-only view of them so
// the returned Run's metrics (population averages, per-pair CDFs) work
// without an event log.
func ExecuteSource(cfg Config, src dataset.Source) (*Run, error) {
	if cfg.Dataset == nil {
		m := src.Meta()
		cfg.Dataset = &dataset.Dataset{
			Name:              m.Name,
			PopulationDevices: m.PopulationDevices,
			DurationDays:      m.DurationDays,
			Advertisers:       m.Advertisers,
		}
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	scfg := cfg.streamConfig()
	scfg.Source = src
	var svc *stream.Service
	var err error
	if cfg.Resume {
		// Recovery: restore the checkpoint directory's durable state, then
		// continue from the source as if never interrupted.
		svc, err = stream.ResumeFrom(scfg, cfg.CheckpointDir)
	} else {
		svc, err = stream.New(scfg)
	}
	if err != nil {
		return nil, err
	}
	srun, err := svc.Serve()
	if err != nil {
		return nil, err
	}
	return &Run{Config: cfg, Run: srun}, nil
}

// streamConfig translates the workload's scenario and durability knobs into
// the stream package's configuration, for both front ends; the event source
// is the caller's to set.
func (c Config) streamConfig() stream.Config {
	scfg := stream.Config{
		EpochDays:            c.EpochDays,
		WindowDays:           c.WindowDays,
		EpsilonG:             c.EpsilonG,
		Calibration:          c.Calibration,
		FixedEpsilon:         c.FixedEpsilon,
		Bias:                 c.Bias,
		Seed:                 c.Seed,
		Parallelism:          c.Parallelism,
		MaxQueriesPerProduct: c.MaxQueriesPerProduct,
		CheckpointDir:        c.CheckpointDir,
		SnapshotEveryDays:    c.SnapshotEveryDays,
		BaseEveryDeltas:      c.BaseEveryDeltas,
		GroupCommitEvents:    c.GroupCommitEvents,
		DurableFS:            c.DurableFS,
		FaultHook:            c.FaultHook,
		AdmitObserver:        c.AdmitObserver,
		ResultObserver:       c.ResultObserver,
		LiveSource:           c.LiveSource,
	}
	if c.DropLate {
		scfg.LatePolicy = stream.LateDrop
	}
	switch c.System {
	case IPALike:
		scfg.Central = true
	default:
		scfg.Policy = c.PolicyOverride
		if scfg.Policy == nil && c.System == ARALike {
			scfg.Policy = core.ARALikePolicy{}
		}
		// CookieMonster is the engine's default policy.
	}
	return scfg
}
