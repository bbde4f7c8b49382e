package experiments

import (
	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/stats"
	"repro/internal/workload"
)

// HeadlineResult backs the paper's abstract claim: "×1.16–2.88 better query
// accuracy compared to a user-time version of ARA and substantially
// outperforms IPA, which exhausts its budget very early." It runs the three
// systems over a ladder of budget-pressure levels on the microbenchmark and
// reports the ARA/CM RMSRE ratio and IPA's executed fraction at each level.
type HeadlineResult struct {
	// Pressure labels the workload intensity (queries per product).
	Pressure []int
	// AccuracyRatio[i] is ARA-like's mean RMSRE divided by Cookie
	// Monster's at Pressure[i] (> 1 means CM is more accurate).
	AccuracyRatio []float64
	// CMError and ARAError are the mean RMSREs behind the ratio.
	CMError, ARAError []float64
	// IPAExecuted[i] is IPA-like's executed query fraction.
	IPAExecuted []float64
}

// Headline runs the accuracy-ratio ladder.
func Headline(o Options) (*HeadlineResult, error) {
	res := &HeadlineResult{Pressure: []int{2, 8, 16}}
	if o.Quick {
		res.Pressure = []int{2, 8}
	}
	for _, qpp := range res.Pressure {
		cfg := dataset.DefaultMicroConfig()
		cfg.Seed += o.Seed
		cfg.QueriesPerProduct = qpp
		cfg.BatchSize = 200
		if o.Quick {
			cfg.BatchSize = 80
		}
		ds, err := dataset.Micro(cfg)
		if err != nil {
			return nil, err
		}
		adv := ds.Advertisers[0]
		eps := privacy.DefaultCalibration.Epsilon(adv.MaxValue, adv.BatchSize, adv.AvgReportValue)
		epsG := eps / 0.25

		means := make(map[workload.System]float64)
		var ipaExec float64
		for _, sys := range workload.Systems {
			run, err := workload.Execute(workload.Config{
				Dataset:     ds,
				System:      sys,
				EpsilonG:    epsG,
				Seed:        o.Seed + 90,
				Parallelism: o.Parallelism,
			})
			if err != nil {
				return nil, err
			}
			means[sys] = stats.Mean(run.RMSREs())
			if sys == workload.IPALike {
				ipaExec = run.ExecutedFraction()
			}
		}
		ratio := 1.0
		if means[workload.CookieMonster] > 0 {
			ratio = means[workload.ARALike] / means[workload.CookieMonster]
		}
		res.AccuracyRatio = append(res.AccuracyRatio, ratio)
		res.CMError = append(res.CMError, means[workload.CookieMonster])
		res.ARAError = append(res.ARAError, means[workload.ARALike])
		res.IPAExecuted = append(res.IPAExecuted, ipaExec)
	}
	return res, nil
}

// Tables renders the ladder.
func (r *HeadlineResult) Tables() []Table {
	t := Table{
		ID:      "headline",
		Title:   "ARA-like vs Cookie Monster accuracy ratio under rising query pressure (paper: ×1.16–2.88)",
		Columns: []string{"queries/product", "cm-mean-RMSRE", "ara-mean-RMSRE", "ara/cm-ratio", "ipa-executed"},
	}
	for i, qpp := range r.Pressure {
		t.Rows = append(t.Rows, []string{
			f(float64(qpp)), f(r.CMError[i]), f(r.ARAError[i]),
			f(r.AccuracyRatio[i]), pct(r.IPAExecuted[i]),
		})
	}
	return []Table{t}
}
