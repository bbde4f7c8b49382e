package stream

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"

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
// replays a materialized trace over a bulk-loaded store (Replay), the
// streaming service records its day clock's arrivals into its store — so
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

	// gen and buf are the generate stage's reusable state (see generateDay);
	// Replay brings two buffers of its own, so a served engine holds one.
	gen Generator
	buf dayBuf
}

// dayBuf is one generate call's buffers: the super-batch concatenation the
// Generator reads and the output slots it fills.
type dayBuf struct {
	convs []events.Event
	reqs  []*core.Request
	out   []convOutput
}

// NewEngine builds an executor for cfg's scenario over db, the store its
// devices read (nil for Replay, which loads its own), and meta, the trace's
// identity. It reads neither Dataset nor Source, and validation
// (Config.Resolve) stays with the callers; zero scenario values take the
// defaults.
func NewEngine(cfg Config, meta dataset.Meta, db *events.Database) *Engine {
	cfg = cfg.withDefaults()
	aggNoise := stats.Stream(cfg.Seed, "aggregation-noise")
	e := &Engine{
		cfg:      cfg,
		meta:     meta,
		agg:      aggregation.NewService(aggNoise),
		aggNoise: aggNoise,
		plan:     newPlanner(meta, cfg.Calibration, cfg.FixedEpsilon, cfg.MaxQueriesPerProduct),
		run: &Run{
			Meta:        meta,
			TotalEpochs: meta.Epochs(cfg.EpochDays),
		},
	}
	if db != nil {
		e.bind(db)
	}
	if cfg.System == IPALike {
		e.gen.central = true
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

// bind makes db the store the engine's devices read, over a new fleet.
func (e *Engine) bind(db *events.Database) {
	e.db = db
	e.fleet = core.NewFleet(db, e.cfg.EpsilonG, e.cfg.Policy)
	e.run.Fleet = e.fleet
}

// Replay bulk-loads a materialized trace into a store of its own
// (events.NewFrozen) and plans and executes it: the batch front end. Each
// fire day runs Flush's three stages, overlapped as a pipeline whose results
// are bit-identical to one Flush per fire day. A planner goroutine, started
// before the bulk load since it reads only the trace, feeds the planner a
// day at a time in (Day, ID) order and sorts and prepares each fire day's
// due list, at most one day ahead. Day d+1 generates on a goroutine of its
// own, into the buffer day d is not folding from, while the coordinator
// folds day d: the fold reads nothing the generate stage writes, and d+1
// generates only after d has, so its nonces lie above d's Compact
// watermark. A stage's panic reaches the caller, and no goroutine outlives
// Replay. It ends by releasing the fleet's hold on the store
// (core.Fleet.ReleaseStore), so the finished Run keeps budget state and
// results, not the trace's arena.
func (e *Engine) Replay(evs []events.Event) error {
	days := make(chan []*Query, 1) // the planner's look-ahead: one fire day
	stop := make(chan struct{})
	joinPlan := spawn(func() { e.planDays(evs, days, stop) })
	defer joinPlan()
	defer close(stop)
	e.bind(events.NewFrozen(e.cfg.EpochDays, evs))

	var bufs [2]dayBuf // fire day k generates into bufs[k%2]
	var prev []*Query
	var prevOut []convOutput
	k := 0
	for due := range days {
		out, err := e.generateWhileFolding(due, &bufs[k%2], prev, prevOut)
		if err != nil {
			return err
		}
		prev, prevOut, k = due, out, k+1
	}
	if err := e.fold(prev, prevOut, nil); err != nil {
		return err
	}
	e.run.EventsIngested += len(evs)
	e.fleet.ReleaseStore()
	return nil
}

// planDays is Replay's planner stage: it buckets evs' conversions by day,
// sorting a day by ID only if it is not in ID order, and sends each fire
// day's due list, prepared, on days until the trace ends or stop closes.
func (e *Engine) planDays(evs []events.Event, days chan<- []*Query, stop <-chan struct{}) {
	defer close(days)
	byDay := make(map[int][]int32)
	for i := range evs {
		if evs[i].IsConversion() {
			byDay[evs[i].Day] = append(byDay[evs[i].Day], int32(i))
		}
	}
	byID := func(a, b int32) int {
		return cmp.Or(cmp.Compare(evs[a].ID, evs[b].ID), cmp.Compare(a, b))
	}
	for _, day := range slices.Sorted(maps.Keys(byDay)) {
		idx := byDay[day]
		if !slices.IsSortedFunc(idx, byID) {
			slices.SortFunc(idx, byID)
		}
		var due []*Query
		for _, i := range idx {
			if q := e.plan.add(evs[i]); q != nil {
				due = append(due, q)
			}
		}
		if len(due) == 0 {
			continue
		}
		e.prepareDay(due)
		select {
		case days <- due:
		case <-stop:
			return
		}
	}
}

// generateWhileFolding generates due into buf on a goroutine of its own
// while it folds the previous fire day, and returns due's outputs once both
// are done; a fold error wins, as in a sequential run.
func (e *Engine) generateWhileFolding(due []*Query, buf *dayBuf, prev []*Query, prevOut []convOutput) ([]convOutput, error) {
	var out []convOutput
	var genErr error
	join := spawn(func() { out, genErr = e.generateDay(due, buf) })
	if err := func() error { defer join(); return e.fold(prev, prevOut, nil) }(); err != nil {
		return nil, err
	}
	return out, genErr
}

// admit routes one conversion to the planner and queues the query it
// completed, if any, on the due list: the service's path to the planner.
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
	product events.Sym
	batch   []events.Event // the B conversions, time-ordered
	fireDay int            // day the batch filled
	seq     int            // batch index within the stream (sort tie-break)
	epsilon float64

	// Execution scratch, populated by prepare: each conversion's request, in
	// one block per query.
	reqs        []core.Request
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
// site, product, seq) total order — as three stages: sort and prepare, then
// generate, then fold. Each result joins Run.Results and is then handed to
// released (when non-nil), whose error aborts the flush.
func (e *Engine) Flush(due []*Query, released func(Result) error) error {
	if len(due) == 0 {
		return nil
	}
	e.prepareDay(due)
	outputs, err := e.generateDay(due, &e.buf)
	if err != nil {
		return err
	}
	return e.fold(due, outputs, released)
}

// prepareDay is Flush's first stage: it sorts a day's due list into
// canonical order and prepares each query, touching no device.
func (e *Engine) prepareDay(due []*Query) {
	slices.SortFunc(due, func(a, b *Query) int {
		return cmp.Or(a.adv.Site.Compare(b.adv.Site), a.product.Compare(b.product), cmp.Compare(a.seq, b.seq))
	})
	for _, q := range due {
		e.prepare(q)
	}
}

// fold is Flush's last stage: it aggregates sequentially in canonical
// order, folding each query's per-conversion outputs in conversion order so
// sums and noise draws are schedule-independent, and then retires the
// day's nonces.
func (e *Engine) fold(due []*Query, outputs []convOutput, released func(Result) error) error {
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
	// consumed and — nonces being minted monotonically, and no later day
	// generating before this one finished — nothing at or below the
	// high-water mark can legitimately arrive again, so the replay-protection
	// entries retire instead of accumulating across the run.
	if maxNonce > 0 {
		e.run.RetiredNonces += e.agg.Compact(maxNonce)
	}
	return nil
}

// prepare builds every conversion's attribution request for one query, in
// one block of values, and the query's epoch span. It resolves no device:
// the generate stage marks each request's window requested in its device's
// ledger — there and nowhere else, for every system, since a central run
// never charges a device ledger and the mark cannot ride on the charge.
func (e *Engine) prepare(q *Query) {
	first, last := events.EpochWindow(q.batch[0].Day, e.cfg.WindowDays, e.cfg.EpochDays)
	q.first, q.last = first, last
	q.reqs = make([]core.Request, len(q.batch))
	for i, conv := range q.batch {
		req := &q.reqs[i]
		fillRequest(req, q.adv, q.product, conv, q.epsilon, e.cfg.WindowDays, e.cfg.EpochDays, e.cfg.Bias)
		q.first, q.last = min(q.first, req.FirstEpoch), max(q.last, req.LastEpoch)
	}
}

// generateDay runs the generate stage for every due query at once. The
// queries' conversions and requests concatenate in canonical order into
// buf, and the Generator partitions the concatenation by device, so a
// device shared across queries (or across conversions of one query) is
// marked and then visited sequentially in exactly the order one query per
// flush would use, while distinct devices from any number of queriers run
// concurrently. buf is reused across flushes: the outputs it returns are
// valid until its next generateDay, so Flush folds them first and Replay
// alternates two buffers. Together with the Generator's own reuse, a
// steady-state flush allocates only the reports it returns.
func (e *Engine) generateDay(due []*Query, buf *dayBuf) ([]convOutput, error) {
	buf.convs, buf.reqs = buf.convs[:0], buf.reqs[:0]
	for _, q := range due {
		buf.convs = append(buf.convs, q.batch...)
		for i := range q.reqs {
			buf.reqs = append(buf.reqs, &q.reqs[i])
		}
	}
	var err error
	buf.out, err = e.gen.Generate(e.fleet, buf.reqs, buf.convs, buf.out, e.cfg.Parallelism)
	return buf.out, err
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

	if e.central != nil {
		// Centralized budgeting: the MPC charges ε to every epoch the
		// query's report windows touch, for the whole population, and
		// rejects the query when any epoch is short. Truth is well-defined
		// either way (for reporting).
		admitted := e.central.ChargeAll(q.adv.Site, int64(res.FirstEpoch), int64(res.LastEpoch), q.epsilon)
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
