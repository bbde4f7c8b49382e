package stream

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
	"repro/internal/stats"
)

// This file is the query executor: the planner that fills batches of B
// conversions and everything that happens once one has filled. Both front
// ends run it a day at a time — the batch engine (internal/workload.Execute)
// replays a materialized trace over a frozen store (Replay), the streaming
// service feeds its day clock's arrivals over its mutable store — so
// planning, request construction, the generate loop, the fold and the
// release exist exactly once. What the two front ends keep apart, and what
// the equivalence suites therefore compare, is the store, retention and
// durability.

// Engine plans and executes filled batches: planner → due list → prepare →
// generate → aggregate over one event store, one device fleet and the run's
// seeded noise streams. It accumulates the Run both front ends report.
type Engine struct {
	cfg  Config
	meta dataset.Meta

	db       *events.Database
	fleet    *core.Fleet
	central  *privacy.Ledger
	agg      *aggregation.Service
	aggNoise *stats.RNG
	ipaNoise *stats.RNG
	run      *Run

	// plan cuts each query stream's conversions into batches; due holds the
	// queries whose batch filled on the current day, awaiting flushDue.
	plan *planner
	due  []*Query

	nextIndex int

	// gen and the day buffers are the generate stage's reusable state:
	// grouping scratch, per-worker multi-request workspaces, and the
	// super-batch concatenation/output slices (see generateDay).
	gen      Generator
	dayConvs []events.Event
	dayReqs  []*core.Request
	dayOut   []convOutput
}

// NewEngine builds an executor for cfg's scenario over db, the store its
// devices read. It needs no Config.Source — the batch engine has none — so
// validation stays with the callers; zero scenario values take the
// service's defaults.
func NewEngine(cfg Config, meta dataset.Meta, db *events.Database) *Engine {
	cfg = cfg.withDefaults()
	aggNoise := stats.Stream(cfg.Seed, "aggregation-noise")
	e := &Engine{
		cfg:      cfg,
		meta:     meta,
		db:       db,
		agg:      aggregation.NewService(aggNoise),
		aggNoise: aggNoise,
		plan:     newPlanner(meta, cfg.Calibration, cfg.FixedEpsilon, cfg.MaxQueriesPerProduct),
		run: &Run{
			Meta:        meta,
			TotalEpochs: meta.Epochs(cfg.EpochDays),
		},
	}
	policy := cfg.Policy
	if policy == nil {
		// Central runs never charge per-device policies; their devices
		// hold requested marks only, so any policy will do.
		policy = core.CookieMonsterPolicy{}
	}
	epsG := cfg.EpsilonG
	e.fleet = core.NewFleet(0, func(id events.DeviceID) *core.Device {
		return core.NewDevice(id, db, epsG, policy)
	})
	e.run.Fleet = e.fleet
	if cfg.Central {
		e.central = privacy.NewLedger(cfg.EpsilonG)
		e.ipaNoise = stats.Stream(cfg.Seed, "ipa-noise")
		e.run.Central = e.central
	}
	// Attribution windows of early conversions reach back before the trace,
	// so the span is wider than the trace's own epochs.
	e.run.FirstSpanEpoch = events.EpochOfDay(1-cfg.WindowDays, cfg.EpochDays)
	e.run.LastSpanEpoch = events.EpochOfDay(meta.DurationDays-1, cfg.EpochDays)
	if e.run.LastSpanEpoch < e.run.FirstSpanEpoch {
		e.run.LastSpanEpoch = e.run.FirstSpanEpoch
	}
	return e
}

// Run returns the run the engine has accumulated so far.
func (e *Engine) Run() *Run { return e.run }

// Replay plans and executes a materialized trace whose events are already in
// the engine's store: the batch front end. Conversions reach the planner a
// day at a time — days ascending, each day's in ID order, the (Day, ID)
// order a source delivers — and each day's due list runs as one Flush, the
// granularity of the service's day clock. Bucketing by day costs a sort of
// each day's indices, never one of the whole trace.
func (e *Engine) Replay(evs []events.Event) error {
	byDay := make(map[int][]int32)
	for i := range evs {
		if evs[i].IsConversion() {
			byDay[evs[i].Day] = append(byDay[evs[i].Day], int32(i))
		}
	}
	for _, day := range slices.Sorted(maps.Keys(byDay)) {
		idx := byDay[day]
		slices.SortFunc(idx, func(a, b int32) int {
			return cmp.Or(cmp.Compare(evs[a].ID, evs[b].ID), cmp.Compare(a, b))
		})
		for _, i := range idx {
			e.admit(evs[i])
		}
		if err := e.flushDue(nil); err != nil {
			return err
		}
	}
	e.run.EventsIngested += len(evs)
	return nil
}

// admit routes one conversion to the planner and queues the query it
// completed, if any, on the due list.
func (e *Engine) admit(conv events.Event) {
	if q := e.plan.add(conv); q != nil {
		e.due = append(e.due, q)
	}
}

// flushDue executes the due list as one Flush and clears it.
func (e *Engine) flushDue(released func(Result) error) error {
	due := e.due
	e.due = nil
	return e.Flush(due, released)
}

// Query is one filled batch awaiting execution.
type Query struct {
	adv     dataset.Advertiser
	product string
	batch   []events.Event // the B conversions, time-ordered
	fireDay int            // day the batch filled
	seq     int            // batch index within the stream (sort tie-break)
	epsilon float64

	// Execution scratch, populated by Flush.
	reqs        []*core.Request
	first, last events.Epoch
}

// convOutput is one conversion's generate-stage result. On-device runs carry
// the fold-ready core.ReportStats instead of a full Diagnostics; the
// generate stage reuses per-worker scratch and never materializes one.
type convOutput struct {
	report *core.Report
	stats  core.ReportStats
	truth  float64 // Central path: the true report value
}

// Flush executes queries that filled on the same day, in the canonical
// (site, product, seq) order — so across days, the schedule's (fireDay,
// site, product, seq) total order. Each result joins Run.Results and is then
// handed to released (when non-nil), whose error aborts the flush.
func (e *Engine) Flush(due []*Query, released func(Result) error) error {
	if len(due) == 0 {
		return nil
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].adv.Site != due[j].adv.Site {
			return due[i].adv.Site < due[j].adv.Site
		}
		if due[i].product != due[j].product {
			return due[i].product < due[j].product
		}
		return due[i].seq < due[j].seq
	})

	// Stage 1: prepare. Requests are pure values; the requested marks are
	// set from the coordinator, in canonical order.
	for _, q := range due {
		e.prepare(q)
	}

	// Stage 2: generate — the queries multiplexed as one device-partitioned
	// super-batch (see generateDay).
	outputs, err := e.generateDay(due)
	if err != nil {
		return err
	}

	// Stage 3: aggregate sequentially in canonical order, folding each
	// query's per-conversion outputs in conversion order so sums and
	// noise draws are schedule-independent.
	off := 0
	var maxNonce core.Nonce
	for _, q := range due {
		out := outputs[off : off+len(q.batch)]
		off += len(q.batch)
		res, err := e.aggregate(q, out)
		if err != nil {
			return err
		}
		for _, o := range out {
			if o.report != nil && o.report.Nonce > maxNonce {
				maxNonce = o.report.Nonce
			}
		}
		res.Index = e.nextIndex
		e.nextIndex++
		res.AvgBudgetAfter = e.populationAvgBudget()
		e.run.Results = append(e.run.Results, res)
		if released != nil {
			if err := released(res); err != nil {
				return err
			}
		}
	}

	// Batch completion: every nonce minted for these queries has been
	// consumed and — nonces being minted monotonically, with the next
	// flush's reports not yet generated — nothing at or below the high-water
	// mark can legitimately arrive again, so the replay-protection entries
	// retire instead of accumulating across the run.
	if maxNonce > 0 {
		e.run.RetiredNonces += e.agg.Compact(maxNonce)
	}
	return nil
}

// prepare builds every conversion's attribution request for one query and
// marks its window requested in the conversion's device ledger — here and
// nowhere else, for every system: a central run never charges a device
// ledger, so the mark cannot ride on the charge.
func (e *Engine) prepare(q *Query) {
	first, last := events.EpochWindow(q.batch[0].Day, e.cfg.WindowDays, e.cfg.EpochDays)
	q.first, q.last = first, last
	q.reqs = make([]*core.Request, len(q.batch))
	for i, conv := range q.batch {
		req := BuildRequest(q.adv, q.product, conv, q.epsilon, e.cfg.WindowDays, e.cfg.EpochDays, e.cfg.Bias)
		q.reqs[i] = req
		e.fleet.GetOrCreate(conv.Device).MarkRequested(q.adv.Site, req.FirstEpoch, req.LastEpoch)
		if req.FirstEpoch < q.first {
			q.first = req.FirstEpoch
		}
		if req.LastEpoch > q.last {
			q.last = req.LastEpoch
		}
	}
}

// generateDay runs the generate stage for every due query at once. The
// queries' conversions concatenate in canonical order; on-device generation
// partitions the concatenation by device so a device shared across queries
// (or across conversions of one query) executes its filter operations
// sequentially in exactly the order one query per flush would, while
// distinct devices from any number of queriers run concurrently. Central
// runs compute true report values instead — side-effect-free reads needing
// no grouping. Outputs land slotted by concatenated conversion index, in
// buffers the engine reuses across flushes (consumed synchronously by
// Flush's aggregation loop, so reuse is safe); together with the Generator's
// own reuse, a steady-state flush allocates only the reports it returns.
func (e *Engine) generateDay(due []*Query) ([]convOutput, error) {
	total := 0
	for _, q := range due {
		total += len(q.batch)
	}
	convs := e.dayConvs[:0]
	reqs := e.dayReqs[:0]
	for _, q := range due {
		convs = append(convs, q.batch...)
		reqs = append(reqs, q.reqs...)
	}
	e.dayConvs, e.dayReqs = convs, reqs
	if cap(e.dayOut) < total {
		e.dayOut = make([]convOutput, total)
	} else {
		e.dayOut = e.dayOut[:total]
		clear(e.dayOut)
	}
	out := e.dayOut

	if e.cfg.Central {
		truths := trueValues(e.db, reqs, convs, e.cfg.Parallelism)
		for i := range out {
			out[i].truth = truths[i]
		}
		return out, nil
	}

	reports, stats, err := e.gen.Generate(e.fleet, reqs, convs, e.cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = convOutput{report: reports[i], stats: stats[i]}
	}
	return out, nil
}

// aggregate folds one query's per-conversion outputs in conversion order and
// releases the noisy result through the trusted aggregation service (or the
// central authorize-and-noise path).
func (e *Engine) aggregate(q *Query, outputs []convOutput) (Result, error) {
	res := Result{
		Querier:    q.adv.Site,
		Product:    q.product,
		Batch:      len(q.batch),
		Epsilon:    q.epsilon,
		FireDay:    q.fireDay,
		FirstEpoch: q.first,
		LastEpoch:  q.last,
	}

	if e.cfg.Central {
		// Centralized budgeting: the MPC charges ε to every epoch the
		// query's report windows touch, for the whole population, and
		// rejects the query when any epoch is short. Truth is well-defined
		// either way (for reporting).
		admitted := e.central.ChargeAll(string(q.adv.Site), int64(res.FirstEpoch), int64(res.LastEpoch), q.epsilon)
		for i := range outputs {
			res.Truth += outputs[i].truth
		}
		if admitted {
			res.Executed = true
			res.Estimate = res.Truth +
				e.ipaNoise.Laplace(privacy.Scale(q.adv.MaxValue, q.epsilon))
			// Central consumption applies to every device in the
			// population, for each epoch the query touched.
			span := float64(res.LastEpoch-res.FirstEpoch) + 1
			e.run.TotalConsumed += q.epsilon * span * float64(e.meta.PopulationDevices)
		}
		res.RMSRE = rmsre(res)
		return res, nil
	}

	reports := make([]*core.Report, len(outputs))
	for i := range outputs {
		st := outputs[i].stats
		res.Truth += st.TruthTotal
		e.run.TotalConsumed += st.TotalLoss
		if st.Denied {
			res.DeniedReports++
		}
		if st.Biased {
			res.BiasedReports++
		}
		reports[i] = outputs[i].report
	}
	out, err := e.agg.Execute(reports)
	if err != nil {
		return res, fmt.Errorf("stream: aggregation failed for %s/%s#%d: %w",
			q.adv.Site, q.product, q.seq, err)
	}
	res.Executed = true
	res.Estimate = out.Aggregate.Total()
	if e.cfg.Bias != nil {
		res.BiasEstimate = biasBound(out.BiasCount, res.Estimate, q.adv,
			q.epsilon, len(q.batch), e.cfg.Bias, e.cfg.Calibration.Beta)
	}
	res.RMSRE = rmsre(res)
	return res, nil
}

// rmsre computes the realized relative error of an executed query (NaN when
// the query was rejected).
func rmsre(res Result) float64 {
	if !res.Executed {
		return math.NaN()
	}
	return stats.RelativeError(res.Estimate, res.Truth)
}

// populationAvgBudget returns the average normalized budget consumption over
// all device-epochs in the population (devices × reachable epochs) — the
// fixed-denominator metric of Fig. 5a, from the folded diagnostics.
func (e *Engine) populationAvgBudget() float64 {
	denom := float64(e.meta.PopulationDevices) * float64(e.epochSpan()) * e.cfg.EpsilonG
	if denom == 0 {
		return 0
	}
	return e.run.TotalConsumed / denom
}

// epochSpan returns the number of epochs any query window can touch.
func (e *Engine) epochSpan() int {
	return int(e.run.LastSpanEpoch-e.run.FirstSpanEpoch) + 1
}
