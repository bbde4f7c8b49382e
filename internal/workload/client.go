package workload

import (
	"repro/internal/dataset"
	"repro/internal/stream"
)

// This file is the thin-client face of the online measurement service: the
// scenario vocabulary (Config and System, aliases of stream's one
// configuration; QueryResult; Run and its metrics) stays here, while
// internal/stream owns the configuration's defaults and validation, planning,
// ingestion, day-clocked scheduling and multiplexed execution. ExecuteSource
// hands the configuration to the service with the event source, drives it,
// and wraps the service's run in the same Run type Execute produces — so
// every experiment harness and metric works identically on either front end.
// The fleet comes across as it is: each device's ledger holds its budget
// slots and, beside them, the requested marks the Fig. 4 metrics read, so
// there is no accounting to copy.
//
// Both front ends plan with stream.Engine's planner and flush one
// super-batch per fire day. What Execute (run.go) does differently is only
// the store, retention and durability: it bulk-loads the trace into an
// event store and replays it, with no retention and no durability. The
// streaming service is held equivalent to Execute bit for bit by the tests
// in internal/stream, and the shared planner to an independent global-sort
// statement of the schedule by TestPlannerMatchesReferencePlan.

// ExecuteSource runs the workload's scenario over an event source — a
// materialized dataset's Stream, or a generator-backed source whose trace is
// never held in memory — through the streaming service. Results are
// bit-identical to Execute over the same trace, at any Parallelism. The
// scenario's population, duration and advertisers come from the source's
// metadata, which the returned Run's metrics read; cfg.Dataset is not
// consulted. With cfg.Resume the service first restores cfg.CheckpointDir's
// durable state.
func ExecuteSource(cfg Config, src dataset.Source) (*Run, error) {
	cfg, err := cfg.Resolve(src.Meta())
	if err != nil {
		return nil, err
	}
	scfg := cfg // the returned Run's Config keeps no reference to the source
	scfg.Source = src
	var svc *stream.Service
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
