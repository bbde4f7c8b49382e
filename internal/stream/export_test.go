package stream

import (
	"cmp"
	"slices"

	"repro/internal/dataset"
	"repro/internal/events"
)

// FullSnapshot hands the external test package the service's complete state
// as one payload, with the generation number of the WAL segment in use — at
// PointDeltaCaptured, what a tick that wrote bases instead of deltas put on
// disk.
func (s *Service) FullSnapshot() (gen uint64, payload []byte, err error) {
	payload, err = s.fullSnapshot()
	return s.nextGen - 1, payload, err
}

// CreateDevices creates ids' devices on the service's fleet, in the order
// given — before Serve, the devices the run would create on its own.
func (s *Service) CreateDevices(ids []events.DeviceID) {
	for _, id := range ids {
		s.fleet.GetOrCreate(id)
	}
}

// LedgerState hands the external test package ledgerState: one device's
// ledger rows and requested marks.
var LedgerState = ledgerState

// PlanDays runs the incremental planner over src and returns each fire
// day's filled batches, days ascending, each day in the order its batches
// filled — the due lists the day clock would hand Flush.
func PlanDays(cfg Config, src dataset.Source) [][]*Query {
	cfg = cfg.withDefaults()
	p := newPlanner(src.Meta(), cfg.Calibration, cfg.FixedEpsilon, cfg.MaxQueriesPerProduct)
	var days [][]*Query
	for ev, ok := src.Next(); ok; ev, ok = src.Next() {
		if !ev.IsConversion() {
			continue
		}
		q := p.add(ev)
		if q == nil {
			continue
		}
		if n := len(days); n == 0 || days[n-1][0].fireDay != q.fireDay {
			days = append(days, nil)
		}
		days[len(days)-1] = append(days[len(days)-1], q)
	}
	return days
}

// PlanOrder sorts one day's queries into the batch plan's (site, product,
// seq) order, stated here independently of Flush's own sort.
func PlanOrder(day []*Query) {
	slices.SortFunc(day, func(a, b *Query) int {
		return cmp.Or(
			cmp.Compare(a.adv.Site.String(), b.adv.Site.String()),
			cmp.Compare(a.product.String(), b.product.String()),
			cmp.Compare(a.seq, b.seq))
	})
}

// Ingested returns the service's ingest cursor: after ResumeFrom, the
// events the chain and the WAL replay restored.
func (s *Service) Ingested() int { return s.run.EventsIngested }

// CMFixtureConfig is the scenario of testdata/ckpt-62d74db over a fresh
// source, durable in dir.
var CMFixtureConfig = cmFixtureConfig
