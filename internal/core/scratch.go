package core

import (
	"repro/internal/events"
	"repro/internal/privacy"
)

// Scratch is the reusable per-worker workspace of the report hot path. The
// per-conversion cost of GenerateReport is dominated by constant factors —
// window/selection slices, per-epoch loss and outcome buffers, diagnostics
// maps — that a worker would otherwise reallocate for every conversion in
// the fleet. A Scratch owns all of them; generate reuses the
// buffers across calls and allocates only what the caller actually retains
// (the Report and its histogram).
//
// Reuse contract: a Scratch may be used by one goroutine at a time, and
// nothing reachable from it survives the call that filled it — callers may
// retain the returned *Report (and the *Diagnostics of GenerateReport, which
// is built from fresh allocations) but must not hold any slice observed
// during a previous call. The fan-out engine (stream.Generator) keeps
// one Scratch per worker for exactly this reason.
type Scratch struct {
	// views holds the zero-copy per-epoch record views of the current
	// window.
	views []events.EventView
	// truthful holds the relevant (pre-filter) events per window epoch;
	// entries alias either the database (epochs where every event is
	// relevant) or the arena below.
	truthful [][]events.Event
	// surviving holds the post-filter events per window epoch.
	surviving [][]events.Event
	// arena is the backing store for partial epoch selections; spans
	// records each epoch's [start, end) range until the arena stops
	// growing and stable sub-slices can be taken.
	arena []events.Event
	spans [][2]int
	// losses, outcomes, and relevant are the per-epoch charge pipeline.
	losses   []float64
	outcomes []privacy.ChargeOutcome
	relevant []int
}

// spanAlias marks a window epoch whose events were all relevant, so the
// truthful slice aliases the database record instead of an arena copy.
const spanAlias = -1

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
// epoch — RelevantWindow's job, without the per-epoch allocations. The
// window's records are fetched as zero-copy EventViews, and each event is
// tested with the selector compiled against the database's interned columns
// when it compiles (every built-in form does: integer compares, no interface
// dispatch) and with Selector.Relevant otherwise (SelectorFunc and other
// opaque selectors); the events property suite holds the two tests equal
// event for event. Partial selections are copied into the shared arena, and
// sub-slices are only taken once the arena has stopped growing, so no span
// is invalidated by a later reallocation; an epoch whose events are all
// relevant aliases the store's record instead.
func selectWindow(db *events.Database, dev events.DeviceID, req *Request, s *Scratch) {
	m, compiled := db.Compile(req.Selector)
	if compiled && m.MatchesNone() {
		// The selector cannot match any stored event: every epoch selects
		// ∅ — the zero-loss case, decided without touching the store.
		clear(s.truthful)
		return
	}
	s.views = db.WindowViewsInto(s.views, dev, req.FirstEpoch, req.LastEpoch)
	s.arena = s.arena[:0]
	s.spans = s.spans[:0]
	for _, v := range s.views {
		start := len(s.arena)
		evs := v.Events()
		for i := range evs {
			if compiled && m.Match(v, i) || !compiled && req.Selector.Relevant(evs[i]) {
				s.arena = append(s.arena, evs[i])
			}
		}
		if len(evs) > 0 && len(s.arena)-start == len(evs) {
			// Every event relevant: alias the (read-only) store memory
			// and return the arena space.
			s.arena = s.arena[:start]
			s.spans = append(s.spans, [2]int{spanAlias, 0})
			continue
		}
		s.spans = append(s.spans, [2]int{start, len(s.arena)})
	}
	for i, sp := range s.spans {
		switch {
		case sp[0] == spanAlias:
			s.truthful[i] = s.views[i].Events()
		case sp[0] == sp[1]:
			s.truthful[i] = nil // nothing relevant: the zero-loss signal
		default:
			s.truthful[i] = s.arena[sp[0]:sp[1]:sp[1]]
		}
	}
}
