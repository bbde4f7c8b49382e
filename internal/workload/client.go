package workload

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stream"
)

// This file is the thin-client face of the online measurement service: the
// scenario vocabulary (Config, System, QueryResult, Run and its metrics)
// stays here, while internal/stream owns ingestion, day-clocked scheduling
// and multiplexed execution. ExecuteStream translates a workload
// configuration into a service configuration, drives the service over the
// dataset's event stream, and folds the service's run back into the same
// Run type the batch engine produces — so every experiment harness and
// metric works identically in either mode. The fleet comes across as it is:
// each device's ledger holds its budget slots and, beside them, the
// requested marks the Fig. 4 metrics read, so there is no accounting to copy.
//
// Execute (run.go) remains the batch *specification* of everything the two
// front ends do differently: it materializes the trace into a frozen store,
// plans globally by sorting, and issues one query per executor call, with no
// retention and no durability. What happens to a filled batch — request
// construction, the generate loop, the fold, the release — is stream.Engine
// for both, one copy: a second copy edited in lock-step would be no
// independent oracle. The streaming service is held equivalent to Execute
// bit for bit by the tests in internal/stream.

// ExecuteStream runs the full workload under cfg through the streaming
// service, ingesting the dataset as a day-ordered event stream instead of
// materializing it. Results are bit-identical to Execute for the same
// configuration, at any Parallelism.
func ExecuteStream(cfg Config) (*Run, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return ExecuteSource(cfg, cfg.Dataset.Stream())
}

// ExecuteSource runs the workload's scenario over an arbitrary event
// source — a materialized dataset's stream, or a generator-backed source
// whose trace is never held in memory. The scenario's population, duration
// and advertisers come from the source's metadata; a nil cfg.Dataset is
// replaced by a metadata-only view of them so the returned Run's metrics
// (population averages, per-pair CDFs) work without an event log.
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
	return RunFromStream(cfg, srun), nil
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

// RunFromStream folds a completed streaming run into the workload's Run
// shape, preserving bit-identity with the batch engine. The serving layer
// uses it to fold a network-fed service's run into the same digestable shape
// every in-process run produces.
func RunFromStream(cfg Config, srun *stream.Run) *Run {
	return &Run{
		Config:         cfg,
		Results:        srun.Results,
		TotalEpochs:    srun.TotalEpochs,
		EventsIngested: srun.EventsIngested,
		EventsDropped:  srun.EventsDropped,
		Durability:     srun.Durability,
		fleet:          srun.Fleet,
		totalConsumed:  srun.TotalConsumed,
		firstSpanEpoch: srun.FirstSpanEpoch,
		lastSpanEpoch:  srun.LastSpanEpoch,
		central:        srun.Central,
	}
}
