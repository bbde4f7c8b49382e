package stream

// Fault injection: the crash-recovery harness (internal/checkpoint) needs to
// kill the service at every durable-state transition and prove that resuming
// from disk reproduces the uninterrupted run bit for bit. FaultPoints name
// those transitions; a Config.FaultHook observes each one and returns a
// non-nil error to simulate a crash there — Serve abandons the in-memory
// state and propagates the error, leaving the checkpoint directory exactly
// as a real crash would.
//
// Hooks fire only on the live path: WAL replay during ResumeFrom is already
// recovery and is never re-crashed from within.

// FaultPoint identifies one state transition of the day-clocked service.
type FaultPoint string

const (
	// PointEventIngested fires after one event was appended to the WAL and
	// applied to the in-memory state (event store + planner cursor).
	PointEventIngested FaultPoint = "event-ingested"
	// PointDayEnd fires at a day boundary, before the day's due queries
	// flush — the last instant at which the day's charges are not yet
	// applied.
	PointDayEnd FaultPoint = "day-end"
	// PointQueryExecuted fires after one query's ledger charges, noise
	// draw, and result record — mid-flush, the regime where recovery must
	// not double-charge the already-executed queries of the day.
	PointQueryExecuted FaultPoint = "query-executed"
	// PointDayFlushed fires after the whole day flushed and the day's
	// consumed nonces retired.
	PointDayFlushed FaultPoint = "day-flushed"
	// PointRetentionAdvanced fires after the retention horizon moved and
	// the event records below it were evicted.
	PointRetentionAdvanced FaultPoint = "retention-advanced"
	// PointSnapshotCommitted fires when a snapshot generation's durable
	// commit is observed by the day clock (its write is joined and the
	// result harvested) — crashing here must resume from the generation
	// just written.
	PointSnapshotCommitted FaultPoint = "snapshot-committed"
	// PointDeltaCaptured fires after the day clock captured the dirty
	// state for a snapshot generation and rotated the WAL, before its write
	// has started — crashing here must recover from the previous generation
	// plus the rotated log.
	PointDeltaCaptured FaultPoint = "delta-captured"
	// PointBaseCompacted fires when a cadence tick decides that its delta
	// is folded into a fresh base, after the previous delta's durable
	// commit, and any compaction it carried (its linked base written and
	// superseded generations collected), was observed, and before the
	// delta is captured — once per compaction counted in
	// DurabilityStats.BaseCompactions. Crashing here must recover from the
	// previous compaction's base and the deltas above it.
	PointBaseCompacted FaultPoint = "base-compacted"
	// PointGroupCommit fires after a WAL group commit was requested: the
	// buffered records reached the file and the background syncer was
	// signalled. The records are not yet guaranteed durable — which is
	// exactly the regime recovery must tolerate.
	PointGroupCommit FaultPoint = "group-commit"
)

// Points lists every registered fault point — the crash-point matrix the
// recovery harness iterates.
var Points = []FaultPoint{
	PointEventIngested,
	PointDayEnd,
	PointQueryExecuted,
	PointDayFlushed,
	PointRetentionAdvanced,
	PointSnapshotCommitted,
	PointDeltaCaptured,
	PointBaseCompacted,
	PointGroupCommit,
}

// FaultHook observes a state transition. Returning a non-nil error makes
// Serve stop there, as if the process had crashed at that instant.
type FaultHook func(FaultPoint) error

// fault notifies the configured hook, if any. Replay of the WAL is exempt:
// recovery itself is never re-crashed from within.
func (s *Service) fault(p FaultPoint) error {
	if s.cfg.FaultHook == nil || s.replaying {
		return nil
	}
	if err := s.cfg.FaultHook(p); err != nil {
		return &FaultError{Point: p, Err: err}
	}
	return nil
}

// FaultError wraps the error a FaultHook returned, recording where the
// simulated crash happened.
type FaultError struct {
	Point FaultPoint
	Err   error
}

// Error implements error.
func (e *FaultError) Error() string {
	return "stream: injected fault at " + string(e.Point) + ": " + e.Err.Error()
}

// Unwrap lets errors.Is reach the hook's sentinel.
func (e *FaultError) Unwrap() error { return e.Err }
