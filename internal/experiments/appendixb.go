package experiments

import (
	"fmt"
	"time"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/events"
)

// AppendixBImpressionCounts are the sweep points of the Appendix B latency
// study (impressions present on the device when a conversion triggers).
var AppendixBImpressionCounts = []int{10, 25, 50, 75, 100}

// AppendixBResult records report-generation latency as a function of the
// number of on-device impressions, over a 20-epoch attribution window — the
// code path whose linear scaling Appendix B measures in Chrome (ARA tracks
// only the latest impression and is flat; Cookie Monster scans all relevant
// impressions grouped by epoch and grows linearly, a timing side channel the
// appendix flags).
type AppendixBResult struct {
	Impressions []int
	// NsPerReport[i] is the mean report-generation latency for
	// Impressions[i] on-device impressions.
	NsPerReport []float64
}

// appendixBDevice builds a single device holding n impressions spread over
// the 20-epoch window.
func appendixBDevice(n int) (*core.Device, *core.Request) {
	const epochs = 20
	const epochDays = 7
	db := events.NewDatabase()
	site, product := events.Intern("nike.example"), events.Intern("product-0")
	for i := 0; i < n; i++ {
		day := (i * epochs * epochDays) / n
		db.Record(events.EpochOfDay(day, epochDays), events.Event{
			ID: events.EventID(i + 1), Kind: events.KindImpression,
			Device: 1, Day: day, Publisher: events.Intern("pub.example"),
			Advertiser: site, Campaign: product,
		})
	}
	dev := core.NewDevice(1, db, 1e12, core.CookieMonsterPolicy{})
	req := &core.Request{
		Querier:    site.String(),
		FirstEpoch: 0, LastEpoch: epochs - 1,
		Selector:          events.ProductSelector{Advertiser: site, Product: product},
		Function:          attribution.ScalarValue{Value: 1},
		Epsilon:           0.01,
		ReportSensitivity: 1,
		QuerySensitivity:  1,
		PNorm:             1,
	}
	return dev, req
}

// AppendixB measures report-generation latency at each impression count.
func AppendixB(o Options) (*AppendixBResult, error) {
	res := &AppendixBResult{Impressions: AppendixBImpressionCounts}
	if o.Quick {
		res.Impressions = []int{10, 100}
	}
	iters := 2000
	if o.Quick {
		iters = 200
	}
	for _, n := range res.Impressions {
		dev, req := appendixBDevice(n)
		// Measure the production hot path: the scratch-reusing device visit
		// the query executor runs, not the allocate-per-call convenience API.
		var scratch core.MultiScratch
		reqs, reps, stats := []*core.Request{req}, make([]*core.Report, 1), make([]core.ReportStats, 1)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := dev.GenerateReportBatch(reqs, &scratch, reps, stats); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		res.NsPerReport = append(res.NsPerReport, float64(elapsed.Nanoseconds())/float64(iters))
	}
	return res, nil
}

// Tables renders the latency series.
func (r *AppendixBResult) Tables() []Table {
	t := Table{
		ID:      "appB",
		Title:   "report-generation latency vs on-device impressions (20 epochs)",
		Columns: []string{"impressions", "ns/report"},
	}
	for i, n := range r.Impressions {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), f(r.NsPerReport[i])})
	}
	return []Table{t}
}
