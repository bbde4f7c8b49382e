package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig5EpochLengths are the epoch-length sweep points (days) of Fig. 5c.
var Fig5EpochLengths = []int{1, 7, 14, 21, 30}

// fig5EpsilonRatio fixes ε/ε^G ≈ 0.3, the paper's PATCG regime (ε ≈ 0.3 vs
// ε^G = 1); the capacity is derived from the calibrated ε at any scale.
const fig5EpsilonRatio = 0.3

// Fig5Result holds the three panels of Fig. 5 (PATCG dataset).
type Fig5Result struct {
	// CumulativeAvg[sys][q] is the average normalized budget over
	// requested device-epochs after query q (panel a).
	CumulativeAvg map[workload.System][]float64
	// ExecutedFraction[sys] is the fraction of submitted queries that ran.
	ExecutedFraction map[workload.System]float64
	// RMSRECDF[sys] is the distribution of realized per-query RMSRE at
	// the default 7-day epoch (panel b).
	RMSRECDF map[workload.System]*stats.CDF
	// EpochSweep[sys][i] summarizes RMSRE at Fig5EpochLengths[i]
	// (panel c).
	EpochSweep map[workload.System][]stats.Summary
	// EpochExecuted[sys][i] is the executed fraction at each epoch length.
	EpochExecuted map[workload.System][]float64
	// EpochLengths records the sweep points used (days).
	EpochLengths []int
	// Queries is the number of queries submitted.
	Queries int
	// Epsilon is the calibrated per-query ε, and EpsilonG the derived
	// per-epoch capacity.
	Epsilon  float64
	EpsilonG float64
}

func fig5Dataset(o Options) (*dataset.Dataset, error) {
	cfg := dataset.DefaultPATCGConfig()
	cfg.Seed += o.Seed
	if o.Quick {
		cfg.Users = 4000
		cfg.QueriesPerProduct = 2
	}
	return dataset.PATCG(cfg)
}

// Fig5 regenerates Fig. 5: budget consumption and query accuracy on the
// PATCG-like dataset.
func Fig5(o Options) (*Fig5Result, error) {
	ds, err := fig5Dataset(o)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{
		CumulativeAvg:    make(map[workload.System][]float64),
		ExecutedFraction: make(map[workload.System]float64),
		RMSRECDF:         make(map[workload.System]*stats.CDF),
		EpochSweep:       make(map[workload.System][]stats.Summary),
		EpochExecuted:    make(map[workload.System][]float64),
	}

	lengths := Fig5EpochLengths
	if o.Quick {
		lengths = []int{7, 30}
	}
	res.EpochLengths = lengths

	adv := ds.Advertisers[0]
	res.Epsilon = privacy.DefaultCalibration.Epsilon(adv.MaxValue, adv.BatchSize, adv.AvgReportValue)
	res.EpsilonG = res.Epsilon / fig5EpsilonRatio

	for _, sys := range workload.Systems {
		// Panels a & b: default 7-day epoch, with cumulative tracking.
		run, err := workload.Execute(workload.Config{
			Dataset:     ds,
			System:      sys,
			EpochDays:   7,
			EpsilonG:    res.EpsilonG,
			Seed:        o.Seed + 50,
			Parallelism: o.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		res.CumulativeAvg[sys] = run.CumulativeAvgBudget()
		res.ExecutedFraction[sys] = run.ExecutedFraction()
		res.RMSRECDF[sys] = stats.NewCDF(run.RMSREs())
		res.Queries = len(run.Results)

		// Panel c: epoch-length sweep.
		for _, days := range lengths {
			sweep, err := workload.Execute(workload.Config{
				Dataset:     ds,
				System:      sys,
				EpochDays:   days,
				EpsilonG:    res.EpsilonG,
				Seed:        o.Seed + 51,
				Parallelism: o.Parallelism,
			})
			if err != nil {
				return nil, err
			}
			res.EpochSweep[sys] = append(res.EpochSweep[sys], stats.Summarize(sweep.RMSREs()))
			res.EpochExecuted[sys] = append(res.EpochExecuted[sys], sweep.ExecutedFraction())
		}
	}
	return res, nil
}

// Tables renders the three panels.
func (r *Fig5Result) Tables() []Table {
	var tables []Table

	// Panel a: cumulative average budget after each query (sampled).
	ta := Table{
		ID:      "fig5a",
		Title:   fmt.Sprintf("population-avg budget consumed vs queries submitted (ε=%.3g, normalized by ε^G=%.3g)", r.Epsilon, r.EpsilonG),
		Columns: []string{"query#"},
	}
	for _, sys := range workload.Systems {
		ta.Columns = append(ta.Columns, sys.String())
	}
	step := len(r.CumulativeAvg[workload.CookieMonster]) / 10
	if step == 0 {
		step = 1
	}
	for q := 0; q < len(r.CumulativeAvg[workload.CookieMonster]); q += step {
		row := []string{fmt.Sprintf("%d", q+1)}
		for _, sys := range workload.Systems {
			row = append(row, f(r.CumulativeAvg[sys][q]))
		}
		ta.Rows = append(ta.Rows, row)
	}
	exec := []string{"executed"}
	for _, sys := range workload.Systems {
		exec = append(exec, pct(r.ExecutedFraction[sys]))
	}
	ta.Rows = append(ta.Rows, exec)
	tables = append(tables, ta)

	// Panel b: RMSRE CDF at a 7-day epoch.
	tb := Table{
		ID:      "fig5b",
		Title:   "CDF of query RMSRE (7-day epoch); IPA-like's line ends at its executed fraction",
		Columns: []string{"percentile"},
	}
	for _, sys := range workload.Systems {
		tb.Columns = append(tb.Columns, sys.String())
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		row := []string{pct(q)}
		for _, sys := range workload.Systems {
			cdf := r.RMSRECDF[sys]
			if cdf.Len() == 0 {
				row = append(row, "n/a")
			} else {
				row = append(row, f(cdf.Quantile(q)))
			}
		}
		tb.Rows = append(tb.Rows, row)
	}
	tables = append(tables, tb)

	// Panel c: RMSRE vs epoch length (box stats).
	tc := Table{
		ID:      "fig5c",
		Title:   "RMSRE vs epoch length (median [q1, q3] (min–max), executed%)",
		Columns: []string{"epoch-days"},
	}
	for _, sys := range workload.Systems {
		tc.Columns = append(tc.Columns, sys.String())
	}
	for i, days := range r.EpochLengths {
		row := []string{fmt.Sprintf("%d", days)}
		for _, sys := range workload.Systems {
			s := r.EpochSweep[sys][i]
			row = append(row, fmt.Sprintf("%s [%s, %s] (%s–%s) %s",
				f(s.Median), f(s.Q1), f(s.Q3), f(s.Min), f(s.Max),
				pct(r.EpochExecuted[sys][i])))
		}
		tc.Rows = append(tc.Rows, row)
	}
	tables = append(tables, tc)
	return tables
}
