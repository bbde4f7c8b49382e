// Package repro's root benchmark harness: one benchmark per table/figure of
// the paper's evaluation (see DESIGN.md's per-experiment index), plus the
// Appendix B report-generation latency series and the §4.3 ablation ladder.
//
// Figure benchmarks run the quick-scale harness once per iteration and
// report the paper-relevant scalar (budget ratio, executed fraction) as
// custom metrics, so `go test -bench=.` both exercises and summarizes every
// experiment. Speed and memory numbers are not produced here: they come
// from `bash bench/run.sh [-trace 1]` (BENCHMARK.json, bench/README.md).
package repro

import (
	"testing"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// BenchmarkFig4BudgetKnobs regenerates Fig. 4a–d (microbenchmark budget
// consumption vs knob1/knob2) and reports Cookie Monster's average budget
// advantage over ARA-like at the lowest-participation point.
func BenchmarkFig4BudgetKnobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		cm := r.AvgByKnob1[workload.CookieMonster][0]
		ara := r.AvgByKnob1[workload.ARALike][0]
		if cm > 0 {
			b.ReportMetric(ara/cm, "ara/cm-budget-ratio")
		}
	}
}

// BenchmarkFig5PATCG regenerates Fig. 5a–c (PATCG budget and accuracy) and
// reports IPA-like's executed fraction (the paper's 3.75%) and the final
// CM-vs-ARA budget ratio.
func BenchmarkFig5PATCG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ExecutedFraction[workload.IPALike], "ipa-executed-frac")
		cm := r.CumulativeAvg[workload.CookieMonster]
		ara := r.CumulativeAvg[workload.ARALike]
		if last := len(cm) - 1; cm[last] > 0 {
			b.ReportMetric(ara[last]/cm[last], "ara/cm-budget-ratio")
		}
	}
}

// BenchmarkFig6Criteo regenerates Fig. 6a–d (Criteo budget and accuracy CDFs
// plus Criteo++ augmentation) and reports the fraction of device-advertiser
// pairs for which CM left more budget capacity than ARA at the 95th
// percentile.
func BenchmarkFig6Criteo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BudgetCDF[workload.CookieMonster].Quantile(0.95), "cm-q95-budget")
		b.ReportMetric(r.BudgetCDF[workload.ARALike].Quantile(0.95), "ara-q95-budget")
	}
}

// BenchmarkFig7BiasMeasurement regenerates Fig. 7a–c (bias measurement) and
// reports the budget overhead of the side query.
func BenchmarkFig7BiasMeasurement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if r.AvgBudget[experiments.Fig7CM] > 0 {
			b.ReportMetric(r.AvgBudget[experiments.Fig7CMBias]/r.AvgBudget[experiments.Fig7CM],
				"bias-budget-overhead")
		}
	}
}

// benchReportGeneration measures Listing 1's report generation with n
// impressions over a 20-epoch window — the Appendix B latency series (ARA's
// Chrome implementation is flat at one impression; Cookie Monster scans all
// relevant impressions, linear in n).
func benchReportGeneration(b *testing.B, n int) {
	db := events.NewDatabase()
	var site = events.Intern("nike.example")
	const epochDays = 7
	for i := 0; i < n; i++ {
		day := (i * 20 * epochDays) / n
		db.Record(events.EpochOfDay(day, epochDays), events.Event{
			ID: events.EventID(i + 1), Kind: events.KindImpression,
			Device: 1, Day: day, Publisher: events.Intern("pub.example"),
			Advertiser: site, Campaign: events.Intern("product-0"),
		})
	}
	dev := core.NewDevice(1, db, 1e15, core.CookieMonsterPolicy{})
	req := &core.Request{
		Querier:    site.String(),
		FirstEpoch: 0, LastEpoch: 19,
		Selector:          events.ProductSelector{Advertiser: site, Product: events.Intern("product-0")},
		Function:          attribution.ScalarValue{Value: 1},
		Epsilon:           1e-9,
		ReportSensitivity: 1,
		QuerySensitivity:  1,
		PNorm:             1,
	}
	b.ReportAllocs()
	var scratch core.MultiScratch
	reqs, reps, stats := []*core.Request{req}, make([]*core.Report, 1), make([]core.ReportStats, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.GenerateReportBatch(reqs, &scratch, reps, stats); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendixBReportGen10(b *testing.B)  { benchReportGeneration(b, 10) }
func BenchmarkAppendixBReportGen25(b *testing.B)  { benchReportGeneration(b, 25) }
func BenchmarkAppendixBReportGen50(b *testing.B)  { benchReportGeneration(b, 50) }
func BenchmarkAppendixBReportGen100(b *testing.B) { benchReportGeneration(b, 100) }

// BenchmarkAblationLadder runs the §4.3 optimization-ladder ablation and
// reports each partial policy's average budget relative to the full Cookie
// Monster policy.
func BenchmarkAblationLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablation(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		full := r.AvgBudget[len(r.AvgBudget)-1]
		if full > 0 {
			b.ReportMetric(r.AvgBudget[0]/full, "none/full-budget-ratio")
		}
	}
}
