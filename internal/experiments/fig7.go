package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig7Cutoffs are the error-estimation cutoffs of Fig. 7c (math.Inf(1)
// renders as the paper's "N/A" column: accept everything).
var Fig7Cutoffs = []float64{math.Inf(1), 0.02, 0.05, 0.1, 0.2}

// fig7EpsilonRatio fixes ε/ε^G ≈ 0.25 at any scale; the §6.5 workload's
// budget pressure comes from its 40×-repeated queries, not a smaller
// capacity.
const fig7EpsilonRatio = 0.25

// Fig7Variant identifies the four lines of Fig. 7.
type Fig7Variant int

const (
	// Fig7IPA is the off-device baseline.
	Fig7IPA Fig7Variant = iota
	// Fig7ARA is the on-device baseline (no bias measurement).
	Fig7ARA
	// Fig7CM is Cookie Monster without bias measurement.
	Fig7CM
	// Fig7CMBias is Cookie Monster with the Appendix F side query.
	Fig7CMBias
)

// String implements fmt.Stringer.
func (v Fig7Variant) String() string {
	switch v {
	case Fig7IPA:
		return "ipa-like"
	case Fig7ARA:
		return "ara-like"
	case Fig7CM:
		return "cm-no-bias-meas"
	case Fig7CMBias:
		return "cm-bias-meas"
	default:
		return fmt.Sprintf("Fig7Variant(%d)", int(v))
	}
}

// Fig7Variants lists the four lines in plot order.
var Fig7Variants = []Fig7Variant{Fig7IPA, Fig7ARA, Fig7CM, Fig7CMBias}

// Fig7Result holds the three panels of Fig. 7 (bias measurement on the
// microbenchmark under heavy query load).
type Fig7Result struct {
	// AvgBudget[v] is the average normalized budget across requested
	// device-epochs (panel a).
	AvgBudget map[Fig7Variant]float64
	// RMSRECDF[v] is the true-RMSRE distribution (panel b)...
	RMSRECDF map[Fig7Variant]*stats.CDF
	// ...and EstimateCDF the querier-side estimated-RMSRE distribution
	// for the bias-measuring variant (panel b's light line).
	EstimateCDF *stats.CDF
	// ExecutedFraction[v] is the fraction of queries executed.
	ExecutedFraction map[Fig7Variant]float64
	// Cutoffs and per-cutoff acceptance/true-error stats (panel c).
	Cutoffs        []float64
	AcceptFraction []float64
	AcceptedRMSRE  []stats.Summary
	// Queries is the number of queries submitted per variant.
	Queries int
	// Epsilon is the calibrated per-query ε, EpsilonG the derived
	// capacity.
	Epsilon  float64
	EpsilonG float64
}

func fig7Dataset(o Options) (*dataset.Dataset, error) {
	cfg := dataset.DefaultMicroConfig()
	cfg.Seed += o.Seed
	// §6.5: default knobs (0.1), 60 days, each query repeated 40 times.
	cfg.DurationDays = 60
	cfg.QueriesPerProduct = 40
	cfg.BatchSize = 150
	if o.Quick {
		cfg.QueriesPerProduct = 8
		cfg.BatchSize = 60
	}
	return dataset.Micro(cfg)
}

// Fig7 regenerates Fig. 7: budget and accuracy with bias measurement.
func Fig7(o Options) (*Fig7Result, error) {
	ds, err := fig7Dataset(o)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{
		AvgBudget:        make(map[Fig7Variant]float64),
		RMSRECDF:         make(map[Fig7Variant]*stats.CDF),
		ExecutedFraction: make(map[Fig7Variant]float64),
		Cutoffs:          Fig7Cutoffs,
	}
	adv := ds.Advertisers[0]
	res.Epsilon = privacy.DefaultCalibration.Epsilon(adv.MaxValue, adv.BatchSize, adv.AvgReportValue)
	res.EpsilonG = res.Epsilon / fig7EpsilonRatio

	runVariant := func(v Fig7Variant) (*workload.Run, error) {
		cfg := workload.Config{
			Dataset:     ds,
			EpochDays:   7,
			EpsilonG:    res.EpsilonG,
			Seed:        o.Seed + 70,
			Parallelism: o.Parallelism,
		}
		switch v {
		case Fig7IPA:
			cfg.System = workload.IPALike
		case Fig7ARA:
			cfg.System = workload.ARALike
		case Fig7CM:
			cfg.System = workload.CookieMonster
		case Fig7CMBias:
			cfg.System = workload.CookieMonster
			// Kappa ≤ 0 selects the default 10%-of-Δquery scaling.
			cfg.Bias = &core.BiasSpec{LastTouch: true}
		}
		return workload.Execute(cfg)
	}

	var biasRun *workload.Run
	for _, v := range Fig7Variants {
		run, err := runVariant(v)
		if err != nil {
			return nil, err
		}
		avg, _ := run.BudgetStats()
		res.AvgBudget[v] = avg
		res.RMSRECDF[v] = stats.NewCDF(run.RMSREs())
		res.ExecutedFraction[v] = run.ExecutedFraction()
		res.Queries = len(run.Results)
		if v == Fig7CMBias {
			biasRun = run
		}
	}

	// Panel b's estimate line and panel c's cutoff study come from the
	// bias-measuring run.
	var estimates []float64
	for _, q := range biasRun.Results {
		estimates = append(estimates, q.BiasEstimate)
	}
	res.EstimateCDF = stats.NewCDF(estimates)

	for _, cutoff := range res.Cutoffs {
		var accepted []float64
		for _, q := range biasRun.Results {
			if q.BiasEstimate <= cutoff && q.Executed {
				accepted = append(accepted, q.RMSRE)
			}
		}
		res.AcceptFraction = append(res.AcceptFraction,
			float64(len(accepted))/float64(len(biasRun.Results)))
		res.AcceptedRMSRE = append(res.AcceptedRMSRE, stats.Summarize(accepted))
	}
	return res, nil
}

// Tables renders the three panels.
func (r *Fig7Result) Tables() []Table {
	var tables []Table

	ta := Table{
		ID:      "fig7a",
		Title:   fmt.Sprintf("avg budget consumed across requested device-epochs (normalized by ε^G=%.3g; %d queries)", r.EpsilonG, r.Queries),
		Columns: []string{"variant", "avg-budget", "executed"},
	}
	for _, v := range Fig7Variants {
		ta.Rows = append(ta.Rows, []string{
			v.String(), f(r.AvgBudget[v]), pct(r.ExecutedFraction[v]),
		})
	}
	tables = append(tables, ta)

	tb := Table{
		ID:      "fig7b",
		Title:   "CDF of true RMSRE per variant, plus the bias-measurement error estimate",
		Columns: []string{"percentile"},
	}
	for _, v := range Fig7Variants {
		tb.Columns = append(tb.Columns, v.String())
	}
	tb.Columns = append(tb.Columns, "cm-bias-meas(estimate)")
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		row := []string{pct(q)}
		for _, v := range Fig7Variants {
			cdf := r.RMSRECDF[v]
			if cdf.Len() == 0 {
				row = append(row, "n/a")
			} else {
				row = append(row, f(cdf.Quantile(q)))
			}
		}
		row = append(row, f(r.EstimateCDF.Quantile(q)))
		tb.Rows = append(tb.Rows, row)
	}
	tables = append(tables, tb)

	tc := Table{
		ID:      "fig7c",
		Title:   "true RMSRE of accepted queries vs error-estimation cutoff",
		Columns: []string{"cutoff", "accepted", "median", "q3", "max"},
	}
	for i, cutoff := range r.Cutoffs {
		label := "N/A"
		if !math.IsInf(cutoff, 1) {
			label = f(cutoff)
		}
		s := r.AcceptedRMSRE[i]
		tc.Rows = append(tc.Rows, []string{
			label, pct(r.AcceptFraction[i]), f(s.Median), f(s.Q3), f(s.Max),
		})
	}
	tables = append(tables, tc)
	return tables
}
