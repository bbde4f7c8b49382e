package workload

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
	"repro/internal/stream"
)

// Run is a completed workload execution with everything the experiment
// harnesses need: per-query results plus the budget state of every filter in
// the system.
type Run struct {
	Config  Config
	Results []QueryResult
	// TotalEpochs is the number of epochs the trace spans.
	TotalEpochs int
	// EventsIngested counts the events the engine consumed: the whole
	// trace for batch runs, events drained from the source (accepted and
	// dropped alike) for streaming runs.
	EventsIngested int
	// EventsDropped counts late events dropped at admission by a
	// streaming run under Config.DropLate (always 0 for batch runs, whose
	// materialized trace has no arrival order to violate).
	EventsDropped int
	// Durability is the streaming run's checkpoint/WAL telemetry (zero
	// for batch runs and for streaming runs without a checkpoint
	// directory). Observability only — never part of CanonicalDigest.
	Durability stream.DurabilityStats
	// MaxQueueDelay and AvgQueueDelay are the admission→apply sojourn of
	// the batches the run admitted: zero unless the run was fed through
	// internal/serve's admission queue, the only queue in front of the day
	// clock. Observability only — never part of CanonicalDigest.
	MaxQueueDelay time.Duration
	AvgQueueDelay time.Duration

	fleet   *core.Fleet
	central *privacy.Ledger
	// totalConsumed is the running sum of consumed privacy loss across
	// all device-epochs (for IPA-like, central consumption is charged to
	// every device in the population).
	totalConsumed float64
	// firstSpanEpoch/lastSpanEpoch delimit every epoch a query window can
	// touch: attribution windows of early conversions reach back before
	// the trace, so the span is wider than the trace's own epochs.
	firstSpanEpoch, lastSpanEpoch events.Epoch
}

// Execute runs the full workload under cfg and returns the collected run:
// the batch front end. It materializes the trace into a frozen store, plans
// every query globally, and hands the plans one at a time, in schedule
// order, to the query executor it shares with the streaming service
// (stream.Engine) — one query per executor call, so a device visit serves
// one request. Results are bit-identical for any worker count.
func Execute(cfg Config) (*Run, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng := stream.NewEngine(cfg.streamConfig(), cfg.Dataset.Meta(), cfg.Dataset.Build(cfg.EpochDays))
	for _, p := range (&Run{Config: cfg}).plan() {
		q := stream.NewQuery(p.advertiser, p.product, p.batch, p.fireDay, p.seq, p.epsilon)
		if err := eng.Flush([]*stream.Query{q}, nil); err != nil {
			return nil, err
		}
	}
	r := RunFromStream(cfg, eng.Run())
	r.EventsIngested = len(cfg.Dataset.Events)
	return r, nil
}

// plan groups each advertiser's conversions per product into time-ordered
// batches of B and schedules the resulting queries by the day their batch
// filled, reproducing the paper's "once B reports are gathered, Nike runs
// its query" loop.
func (r *Run) plan() []queryPlan {
	type stream struct {
		site    events.Site
		product string
	}
	byStream := make(map[stream][]events.Event)
	advBySite := make(map[events.Site]dataset.Advertiser, len(r.Config.Dataset.Advertisers))
	for _, adv := range r.Config.Dataset.Advertisers {
		advBySite[adv.Site] = adv
	}
	for _, ev := range r.Config.Dataset.Events {
		if !ev.IsConversion() {
			continue
		}
		if _, ok := advBySite[ev.Advertiser]; !ok {
			continue // not a queryable advertiser
		}
		key := stream{ev.Advertiser, ev.Product}
		byStream[key] = append(byStream[key], ev)
	}

	var plans []queryPlan
	for key, convs := range byStream {
		adv := advBySite[key.site]
		sort.Slice(convs, func(i, j int) bool { return convs[i].Before(convs[j]) })
		eps := r.Config.FixedEpsilon
		if eps <= 0 {
			eps = r.Config.Calibration.Epsilon(
				adv.MaxValue, adv.BatchSize, adv.AvgReportValue)
		}
		b := adv.BatchSize
		max := len(convs) / b
		if r.Config.MaxQueriesPerProduct > 0 && max > r.Config.MaxQueriesPerProduct {
			max = r.Config.MaxQueriesPerProduct
		}
		for q := 0; q < max; q++ {
			chunk := convs[q*b : (q+1)*b]
			plans = append(plans, queryPlan{
				advertiser: adv,
				product:    key.product,
				batch:      chunk,
				fireDay:    chunk[len(chunk)-1].Day,
				seq:        q,
				epsilon:    eps,
			})
		}
	}
	// The key (fireDay, site, product, seq) is total, so the schedule is
	// independent of map iteration order.
	sort.Slice(plans, func(i, j int) bool {
		if plans[i].fireDay != plans[j].fireDay {
			return plans[i].fireDay < plans[j].fireDay
		}
		if plans[i].advertiser.Site != plans[j].advertiser.Site {
			return plans[i].advertiser.Site < plans[j].advertiser.Site
		}
		if plans[i].product != plans[j].product {
			return plans[i].product < plans[j].product
		}
		return plans[i].seq < plans[j].seq
	})
	return plans
}
