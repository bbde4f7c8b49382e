package workload

import (
	"fmt"
	"time"

	"repro/internal/stream"
)

// Run is a completed workload execution with everything the experiment
// harnesses need: the engine's run — per-query results, the budget state of
// every filter in the system, ingest and durability telemetry — under the
// configuration that produced it.
type Run struct {
	Config Config
	// Run is what the engine accumulated. Its EventsIngested counts the
	// events the engine consumed (the whole trace for batch runs, events
	// drained from the source, accepted and dropped alike, for streaming
	// runs); its EventsDropped and Durability stay zero for batch runs,
	// which have no arrival order to violate and no checkpoint directory.
	*stream.Run
	// MaxQueueDelay and AvgQueueDelay are the admission→apply sojourn of
	// the batches the run admitted: zero unless the run was fed through
	// internal/serve's admission queue, the only queue in front of the day
	// clock. Observability only — never part of CanonicalDigest.
	MaxQueueDelay time.Duration
	AvgQueueDelay time.Duration
}

// Execute runs the full workload under cfg and returns the collected run:
// the batch front end. It replays the trace through the engine it shares
// with the streaming service (stream.Engine.Replay), which bulk-loads it
// into an event store of its own while it plans: the same planner, one
// super-batch per fire day. Results are bit-identical for any worker count.
func Execute(cfg Config) (*Run, error) {
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("workload: nil dataset")
	}
	meta := cfg.Dataset.Meta()
	cfg, err := cfg.Resolve(meta)
	if err != nil {
		return nil, err
	}
	eng := stream.NewEngine(cfg, meta, nil)
	if err := eng.Replay(cfg.Dataset.Events); err != nil {
		return nil, err
	}
	return &Run{Config: cfg, Run: eng.Run()}, nil
}
