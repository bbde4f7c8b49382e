package stream

import (
	"cmp"
	"maps"
	"slices"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
)

// The planner is the paper's query schedule, and the only copy of it: each
// queryable advertiser's conversions accumulate per product into
// time-ordered batches of B, and a query becomes due the moment its B-th
// conversion arrives (the paper's "once B reports are gathered, Nike runs
// its query" loop). Both front ends feed it conversions in (Day, ID) order —
// the service as its day clock admits them, Engine.Replay a materialized
// trace's conversions a day at a time — so both cut the same batch
// boundaries, fire days, and requested ε. The independent statement of the
// schedule, a global sort over the trace, survives as the test-side
// reference internal/workload's planner test holds this one to.

// streamKey identifies one advertiser×product query stream.
type streamKey struct {
	site    events.Site
	product string
}

// streamState accumulates one query stream.
type streamState struct {
	adv     dataset.Advertiser
	product string
	epsilon float64
	pending []events.Event
	seq     int
	capped  bool
}

// planner tracks every open query stream. Memory is bounded by one open
// batch per stream (B conversions each), independent of trace length.
type planner struct {
	advBySite  map[events.Site]dataset.Advertiser
	streams    map[streamKey]*streamState
	maxQueries int
	cal        privacy.Calibration
	fixedEps   float64
	// dirty, when non-nil, collects the streams mutated since the last
	// incremental checkpoint drained it (nil when the service is not
	// delta-checkpointing, so the hot path pays nothing).
	dirty map[streamKey]struct{}
}

func newPlanner(meta dataset.Meta, cal privacy.Calibration, fixedEps float64, maxQueries int) *planner {
	advBySite := make(map[events.Site]dataset.Advertiser, len(meta.Advertisers))
	for _, adv := range meta.Advertisers {
		advBySite[adv.Site] = adv
	}
	return &planner{
		advBySite:  advBySite,
		streams:    make(map[streamKey]*streamState),
		maxQueries: maxQueries,
		cal:        cal,
		fixedEps:   fixedEps,
	}
}

// add routes one conversion to its stream and returns the query it
// completed, or nil. Conversions from non-queryable advertisers are
// ignored; capped streams drop conversions immediately so they cannot pin
// the retention horizon.
func (p *planner) add(conv events.Event) *Query {
	adv, ok := p.advBySite[conv.Advertiser]
	if !ok {
		return nil
	}
	key := streamKey{conv.Advertiser, conv.Product}
	st := p.streams[key]
	if st == nil {
		eps := p.fixedEps
		if eps <= 0 {
			eps = p.cal.Epsilon(adv.MaxValue, adv.BatchSize, adv.AvgReportValue)
		}
		st = &streamState{adv: adv, product: conv.Product, epsilon: eps}
		p.streams[key] = st
	}
	if st.capped {
		return nil
	}
	if p.dirty != nil {
		p.dirty[key] = struct{}{}
	}
	st.pending = append(st.pending, conv)
	if len(st.pending) < adv.BatchSize {
		return nil
	}
	q := &Query{adv: adv, product: st.product, batch: st.pending, fireDay: conv.Day, seq: st.seq, epsilon: st.epsilon}
	st.pending = nil
	st.seq++
	if p.maxQueries > 0 && st.seq >= p.maxQueries {
		st.capped = true
	}
	return q
}

// trackDirty enables (and clears) dirty-stream tracking: every stream
// mutated after this call is reported by the next drainDirty.
func (p *planner) trackDirty() {
	p.dirty = make(map[streamKey]struct{})
}

// drainDirty returns the streams mutated since tracking was last enabled or
// drained, sorted by (site, product), and clears the set.
func (p *planner) drainDirty() []streamKey {
	keys := slices.SortedFunc(maps.Keys(p.dirty), streamKey.compare)
	clear(p.dirty)
	return keys
}

// sortedKeys returns every stream's key, sorted by (site, product).
func (p *planner) sortedKeys() []streamKey {
	return slices.SortedFunc(maps.Keys(p.streams), streamKey.compare)
}

// compare orders stream keys by (site, product).
func (k streamKey) compare(o streamKey) int {
	if c := cmp.Compare(k.site, o.site); c != 0 {
		return c
	}
	return cmp.Compare(k.product, o.product)
}

// minPendingDay returns the earliest day among buffered conversions across
// all open streams — the oldest attribution window any future query can
// still reach — and whether any conversion is pending at all.
func (p *planner) minPendingDay() (int, bool) {
	min, found := 0, false
	for _, st := range p.streams {
		if st.capped || len(st.pending) == 0 {
			continue
		}
		if d := st.pending[0].Day; !found || d < min {
			min, found = d, true
		}
	}
	return min, found
}
