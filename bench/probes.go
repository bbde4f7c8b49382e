package main

import (
	"time"

	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Engine micro-probes: each times one public call of one engine package over
// the same sample of the workload's trace, so that a change in one package
// has one number of its own to move. They are per-layer figures, measured in
// a child of their own during a traced run, and never gated.

// probeSample is how many conversions the probes replay. They are taken at
// an even stride across the trace in (Day, ID) order, not from its head,
// where attribution windows are still empty.
const probeSample = 20000

const (
	probeEpochDays  = 7
	probeWindowDays = 30
	probeLanes      = 16
)

// probe is one conversion's replayable request.
type probe struct {
	conv events.Event
	req  *core.Request
}

// probeRequests builds the attribution request of every sampled conversion
// exactly as both engines do (stream.BuildRequest with the advertiser's
// calibrated ε).
func probeRequests(ds *dataset.Dataset) []probe {
	advBySite := make(map[events.Site]dataset.Advertiser, len(ds.Advertisers))
	eps := make(map[events.Site]float64, len(ds.Advertisers))
	for _, a := range ds.Advertisers {
		advBySite[a.Site] = a
		eps[a.Site] = privacy.DefaultCalibration.Epsilon(a.MaxValue, a.BatchSize, a.AvgReportValue)
	}
	var convs []events.Event
	for _, ev := range servable(ds).Events {
		if ev.IsConversion() {
			convs = append(convs, ev)
		}
	}
	stride := max(1, len(convs)/probeSample)
	var out []probe
	for i := 0; i < len(convs) && len(out) < probeSample; i += stride {
		c := convs[i]
		a := advBySite[c.Advertiser]
		out = append(out, probe{conv: c, req: stream.BuildRequest(a, c.Product, c, eps[a.Site],
			probeWindowDays, probeEpochDays, nil)})
	}
	return out
}

// perOp times fn and returns nanoseconds per one of n operations, recording
// the probe as a span.
func (s *sut) perOp(name string, n int, fn func()) float64 {
	start := time.Now()
	fn()
	el := time.Since(start)
	s.rec.record("probe."+name, s.root, 0, start.UnixNano(), start.Add(el).UnixNano())
	return float64(el.Nanoseconds()) / float64(n)
}

// newFleet returns a device constructor over db with a fresh ledger per
// device, so every probe starts from unspent budgets.
func newFleet(db *events.Database) func(events.DeviceID) *core.Device {
	devices := make(map[events.DeviceID]*core.Device)
	return func(id events.DeviceID) *core.Device {
		d := devices[id]
		if d == nil {
			d = core.NewDevice(id, db, epsilonG, core.CookieMonsterPolicy{})
			devices[id] = d
		}
		return d
	}
}

func (s *sut) runProbes() (*sutReport, error) {
	layer := map[string]float64{}
	genStart := time.Now()
	ds, err := genTrace(s.w, s.seed)
	if err != nil {
		return nil, err
	}
	layer["dataset.gen_s"] = time.Since(genStart).Seconds()
	layer["dataset.events"] = float64(len(ds.Events))
	probes := probeRequests(ds)
	n := len(probes)
	if err := s.ready(""); err != nil {
		return nil, err
	}

	var db *events.Database
	layer["events.freeze_ns_per_event"] = s.perOp("events.freeze", len(ds.Events), func() {
		db = events.NewFrozen(probeEpochDays, ds.Events)
	})

	// events: one compiled lane per request through the multi-matcher scan.
	var scan events.MultiScan
	lanes := make([]events.ScanLane, 1)
	out := make([][]events.Event, probeWindowDays) // more slots than any window has epochs
	layer["events.scan_ns_per_report"] = s.perOp("events.scan", n, func() {
		for _, p := range probes {
			m, _ := db.Compile(p.req.Selector)
			ln := &lanes[0]
			ln.Matcher, ln.First, ln.Last = m, p.req.FirstEpoch, p.req.LastEpoch
			ln.Out = out[:p.req.WindowSize()]
			scan.ScanWindow(db, p.conv.Device, lanes)
		}
	})

	// core: Listing 1 end to end, one request per device visit…
	var ms core.MultiScratch
	reports := make([]*core.Report, n)
	rstats := make([]core.ReportStats, n)
	one := make([]*core.Request, 1)
	device := newFleet(db)
	var probeErr error
	layer["core.report_ns"] = s.perOp("core.report", n, func() {
		for i, p := range probes {
			one[0] = p.req
			if _, err := device(p.conv.Device).GenerateReportBatch(one, &ms, reports[i:i+1], rstats[i:i+1]); err != nil {
				probeErr = err
			}
		}
	})
	// …and sixteen per visit: request i's device evaluates requests
	// i..i+15, the shape of a day super-batch on a device many queriers hit.
	device = newFleet(db)
	reqs := make([]*core.Request, n)
	for i, p := range probes {
		reqs[i] = p.req
	}
	visits := 0
	wideReports := make([]*core.Report, probeLanes)
	wideStats := make([]core.ReportStats, probeLanes)
	wide := s.perOp("core.report_q16", 1, func() {
		for i := 0; i+probeLanes <= n; i += probeLanes {
			if _, err := device(probes[i].conv.Device).GenerateReportBatch(
				reqs[i:i+probeLanes], &ms, wideReports, wideStats); err != nil {
				probeErr = err
			}
			visits++
		}
	})
	if probeErr != nil {
		return nil, probeErr
	}
	if visits > 0 {
		layer["core.report_q16_ns"] = wide / float64(visits*probeLanes)
	}

	// privacy: the same requests' per-epoch losses (read from the
	// diagnostics path on a third fleet, untimed) charged to fresh ledgers.
	device = newFleet(db)
	losses := make([][]float64, n)
	for i, p := range probes {
		_, diag, err := device(p.conv.Device).GenerateReport(p.req)
		if err != nil {
			return nil, err
		}
		losses[i] = diag.PerEpochLoss
	}
	ledgers := make(map[events.DeviceID]*privacy.Ledger)
	for _, p := range probes {
		if ledgers[p.conv.Device] == nil {
			ledgers[p.conv.Device] = privacy.NewLedger(epsilonG)
		}
	}
	outcomes := make([]privacy.ChargeOutcome, 64)
	layer["privacy.charge_window_ns"] = s.perOp("privacy.charge_window", n, func() {
		for i, p := range probes {
			ledgers[p.conv.Device].ChargeWindow(string(p.req.Querier), int64(p.req.FirstEpoch),
				losses[i], outcomes[:len(losses[i])])
		}
	})

	// attribution: the attribution function over each request's window.
	windows := make([][][]events.Event, n)
	for i, p := range probes {
		windows[i] = core.RelevantWindow(db, p.conv.Device, p.req)
	}
	layer["attribution.attribute_ns"] = s.perOp("attribution.attribute", n, func() {
		for i, p := range probes {
			core.AttributeWindow(p.req, windows[i])
		}
	})

	// aggregation: the Q=1 pass's reports, batched per querier at its batch
	// size, through the aggregation service.
	byQuerier := make(map[events.Site][]*core.Report)
	var order []events.Site
	for _, r := range reports {
		if _, ok := byQuerier[r.Querier]; !ok {
			order = append(order, r.Querier)
		}
		byQuerier[r.Querier] = append(byQuerier[r.Querier], r)
	}
	batchOf := make(map[events.Site]int)
	for _, a := range ds.Advertisers {
		batchOf[a.Site] = a.BatchSize
	}
	var batches [][]*core.Report
	for _, q := range order {
		reps, b := byQuerier[q], batchOf[q]
		for ; len(reps) >= b; reps = reps[b:] {
			batches = append(batches, reps[:b])
		}
	}
	if len(batches) == 0 && len(order) > 0 {
		// A sample too thin for any full batch: one short batch still
		// exercises the call.
		batches = append(batches, byQuerier[order[0]])
	}
	if len(batches) > 0 {
		svc := aggregation.NewService(stats.Stream(s.seed, "bench-probe"))
		layer["aggregation.execute_us_per_query"] = s.perOp("aggregation.execute", len(batches), func() {
			for _, b := range batches {
				if _, err := svc.Execute(b); err != nil {
					probeErr = err
				}
			}
		}) / 1e3
		if probeErr != nil {
			return nil, probeErr
		}
	}
	return &sutReport{Events: len(ds.Events), Layer: layer}, nil
}
