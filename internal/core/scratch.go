package core

import (
	"repro/internal/events"
	"repro/internal/privacy"
)

// Scratch is the reusable per-worker workspace of the report hot path. The
// per-conversion cost of report generation is dominated by constant factors
// — window/selection slices, per-epoch loss and outcome buffers — that a
// worker would otherwise reallocate for every conversion in the fleet. A
// Scratch owns all of them; GenerateReportBatch reuses the buffers across
// calls and allocates only what the caller actually retains (the Report and
// its histogram).
//
// Reuse contract: a Scratch may be used by one goroutine at a time, and
// nothing reachable from it survives the call that filled it — callers may
// retain the returned *Report (and the *Diagnostics of GenerateReport, which
// is built from fresh allocations) but must not hold any slice observed
// during a previous call. The fan-out engine (stream.Generator) keeps
// one MultiScratch per worker for exactly this reason.
type Scratch struct {
	// lane and scan are the window selection's reusable state (see
	// events.MultiScan.Select).
	lane events.ScanLane
	scan events.MultiScan
	// truthful holds the relevant (pre-filter) events per window epoch —
	// the selection's output slots; entries alias either the database
	// (epochs where every event is relevant) or the lane's arena.
	truthful [][]events.Event
	// surviving holds the post-filter events per window epoch.
	surviving [][]events.Event
	// losses, outcomes, and relevant are the per-epoch charge pipeline.
	losses   []float64
	outcomes []privacy.ChargeOutcome
	relevant []int
}

// grow resizes the scratch buffers for a k-epoch window. Slice contents are
// left stale; every entry is overwritten by the passes that follow.
func (s *Scratch) grow(k int) {
	if cap(s.truthful) < k {
		s.truthful = make([][]events.Event, k)
		s.surviving = make([][]events.Event, k)
		s.losses = make([]float64, k)
		s.outcomes = make([]privacy.ChargeOutcome, k)
		s.relevant = make([]int, k)
	} else {
		s.truthful = s.truthful[:k]
		s.surviving = s.surviving[:k]
		s.losses = s.losses[:k]
		s.outcomes = s.outcomes[:k]
		s.relevant = s.relevant[:k]
	}
}

// selectWindow fills s.truthful with the relevant events of every window
// epoch — RelevantWindow's job, without the per-epoch allocations — through
// the store's one window selection (events.MultiScan.Select): the selector
// compiled to integer compares when it is a built-in form, Selector.Relevant
// otherwise.
func selectWindow(db *events.Database, dev events.DeviceID, req *Request, s *Scratch) {
	s.lane.First, s.lane.Last, s.lane.Out = req.FirstEpoch, req.LastEpoch, s.truthful
	s.scan.Select(db, dev, &s.lane, req.Selector)
}
