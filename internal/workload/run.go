package workload

import (
	"math"
	"sort"
	"time"

	"repro/internal/aggregation"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
	"repro/internal/stats"
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

	db       *events.Database
	fleet    *core.Fleet
	central  *budget.IPALike
	ipaNoise *stats.RNG
	// gen is the generate stage's reusable state (grouping scratch,
	// per-worker workspaces), shared by every batch of the run.
	gen stream.Generator
	// totalConsumed is the running sum of consumed privacy loss across
	// all device-epochs (for IPA-like, central consumption is charged to
	// every device in the population).
	totalConsumed float64
	// firstSpanEpoch/lastSpanEpoch delimit every epoch a query window can
	// touch: attribution windows of early conversions reach back before
	// the trace, so the span is wider than the trace's own epochs.
	firstSpanEpoch, lastSpanEpoch events.Epoch
}

// Execute runs the full workload under cfg and returns the collected run.
// Queries execute sequentially in schedule order (their noise draws come
// from the run's seeded streams), but within each batch the per-conversion
// report generation fans out across cfg.Parallelism workers over the
// sharded device fleet; results are bit-identical for any worker count.
func Execute(cfg Config) (*Run, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Run{
		Config:         cfg,
		TotalEpochs:    cfg.Dataset.Epochs(cfg.EpochDays),
		EventsIngested: len(cfg.Dataset.Events),
		db:             cfg.Dataset.Build(cfg.EpochDays),
	}
	policy := cfg.PolicyOverride
	if policy == nil {
		if cfg.System == ARALike {
			policy = core.ARALikePolicy{}
		} else {
			policy = core.CookieMonsterPolicy{}
		}
	}
	db, epsG := r.db, cfg.EpsilonG
	r.fleet = core.NewFleet(0, func(id events.DeviceID) *core.Device {
		return core.NewDevice(id, db, epsG, policy)
	})
	r.firstSpanEpoch = events.EpochOfDay(1-cfg.WindowDays, cfg.EpochDays)
	r.lastSpanEpoch = events.EpochOfDay(cfg.Dataset.DurationDays-1, cfg.EpochDays)
	if r.lastSpanEpoch < r.firstSpanEpoch {
		r.lastSpanEpoch = r.firstSpanEpoch
	}
	if cfg.System == IPALike {
		r.central = budget.NewIPALike(cfg.EpsilonG)
		r.ipaNoise = stats.Stream(cfg.Seed, "ipa-noise")
	}

	service := aggregation.NewService(stats.Stream(cfg.Seed, "aggregation-noise"))
	plans := r.plan()
	for i, p := range plans {
		res, err := r.executeQuery(service, p)
		if err != nil {
			return nil, err
		}
		res.Index = i
		res.AvgBudgetAfter = r.PopulationAvgBudget()
		r.Results = append(r.Results, res)
	}
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

// request builds the attribution request for one conversion. The
// construction is shared with the streaming executor (stream.BuildRequest):
// it defines report content, so bit-equivalence between modes requires a
// single copy.
func (r *Run) request(adv dataset.Advertiser, product string, conv events.Event, eps float64) *core.Request {
	return stream.BuildRequest(adv, product, conv, eps,
		r.Config.WindowDays, r.Config.EpochDays, r.Config.Bias)
}

// executeQuery runs one batch through the three pipeline stages: prepare
// (build every conversion's request and mark its window requested on its
// device, sequentially and for every system), generate (fan report generation out across
// the worker pool; see pipeline.go), aggregate (fold per-conversion outputs
// in conversion order and release the noisy result). A malformed request in
// the generate stage aborts the run with an error.
func (r *Run) executeQuery(service *aggregation.Service, p queryPlan) (QueryResult, error) {
	res := QueryResult{
		Querier: p.advertiser.Site,
		Product: p.product,
		Batch:   len(p.batch),
		Epsilon: p.epsilon,
		FireDay: p.fireDay,
	}
	first, last := events.EpochWindow(p.batch[0].Day, r.Config.WindowDays, r.Config.EpochDays)
	res.FirstEpoch, res.LastEpoch = first, last

	// Stage 1: prepare. Requests are pure values; the requested marks and
	// window widening stay on the coordinator.
	reqs := make([]*core.Request, len(p.batch))
	for i, conv := range p.batch {
		req := r.request(p.advertiser, p.product, conv, p.epsilon)
		reqs[i] = req
		r.fleet.GetOrCreate(conv.Device).MarkRequested(p.advertiser.Site, req.FirstEpoch, req.LastEpoch)
		if req.FirstEpoch < res.FirstEpoch {
			res.FirstEpoch = req.FirstEpoch
		}
		if req.LastEpoch > res.LastEpoch {
			res.LastEpoch = req.LastEpoch
		}
	}

	switch r.Config.System {
	case CookieMonster, ARALike:
		// Stage 2: generate reports on-device, in parallel.
		outputs, err := r.generateReports(reqs, p.batch)
		if err != nil {
			return res, err
		}

		// Stage 3: aggregate. Per-conversion outputs fold in
		// conversion order, so sums are schedule-independent.
		reports := make([]*core.Report, len(outputs))
		for i := range outputs {
			st := outputs[i].stats
			res.Truth += st.TruthTotal
			r.totalConsumed += st.TotalLoss
			if st.Denied {
				res.DeniedReports++
			}
			if st.Biased {
				res.BiasedReports++
			}
			reports[i] = outputs[i].report
		}
		out, err := service.Execute(reports)
		if err != nil {
			panic("workload: aggregation failed: " + err.Error())
		}
		// Batch completion: these nonces are consumed and — nonces being
		// minted monotonically, with the next query's reports not yet
		// generated — nothing at or below the batch's high-water mark can
		// legitimately arrive again, so the replay-protection entries
		// retire instead of accumulating across the run.
		var maxNonce core.Nonce
		for _, rep := range reports {
			if rep.Nonce > maxNonce {
				maxNonce = rep.Nonce
			}
		}
		service.Compact(maxNonce)
		res.Executed = true
		res.Estimate = out.Aggregate.Total()
		if r.Config.Bias != nil {
			res.BiasEstimate = stream.BiasBound(out.BiasCount, res.Estimate,
				p.advertiser, p.epsilon, len(p.batch), r.Config.Bias,
				r.Config.Calibration.Beta)
		}

	case IPALike:
		// Centralized budgeting: the MPC charges ε to every epoch the
		// query's report windows touch, for the whole population, and
		// rejects the query when any filter is short.
		err := r.central.Authorize(p.advertiser.Site, res.FirstEpoch, res.LastEpoch, p.epsilon)
		// Stage 2: truth is well-defined either way (for reporting);
		// IPA computes attribution centrally on the full data, so
		// executed queries aggregate true report values.
		outputs := r.trueValues(reqs, p.batch)
		// Stage 3: fold in conversion order.
		for i := range outputs {
			res.Truth += outputs[i].truth
		}
		if err == nil {
			res.Executed = true
			res.Estimate = res.Truth +
				r.ipaNoise.Laplace(privacy.Scale(p.advertiser.MaxValue, p.epsilon))
			// Central consumption applies to every device in the
			// population, for each epoch the query touched.
			span := float64(res.LastEpoch-res.FirstEpoch) + 1
			r.totalConsumed += p.epsilon * span * float64(r.Config.Dataset.PopulationDevices)
		}
	}

	if res.Executed {
		res.RMSRE = stats.RelativeError(res.Estimate, res.Truth)
	} else {
		res.RMSRE = math.NaN()
	}
	return res, nil
}
