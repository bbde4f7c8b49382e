package experiments

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig6EpochLengths are the epoch-length sweep points (days) of Fig. 6c.
var Fig6EpochLengths = []int{1, 7, 30, 60}

// Fig6AugmentLevels are the Criteo++ augmentation levels of Fig. 6d (extra
// synthetic impressions per conversion).
var Fig6AugmentLevels = []int{0, 1, 4, 9}

// fig6EpsilonRatio fixes ε/ε^G ≈ 0.3 at any scale.
const fig6EpsilonRatio = 0.3

// Fig6Result holds the four panels of Fig. 6 (Criteo-like dataset).
type Fig6Result struct {
	// BudgetCDF[sys] is the per-(device, advertiser) average normalized
	// budget distribution (panel a).
	BudgetCDF map[workload.System]*stats.CDF
	// RMSRECDF[sys] is the distribution of per-query RMSRE (panel b).
	RMSRECDF map[workload.System]*stats.CDF
	// ExecutedFraction[sys] is the fraction of queries executed.
	ExecutedFraction map[workload.System]float64
	// EpochSweep[sys][i] summarizes RMSRE at EpochLengths[i] (panel c).
	EpochSweep   map[workload.System][]stats.Summary
	EpochLengths []int
	// AugmentCDF[level] is Cookie Monster's budget CDF at each Criteo++
	// augmentation level (panel d); AugmentARA is the (augmentation-
	// independent) ARA-like reference at level 0.
	AugmentCDF    map[int]*stats.CDF
	AugmentLevels []int
	AugmentARA    *stats.CDF
	// Queries and QueryableAdvertisers record the workload size.
	Queries              int
	QueryableAdvertisers int
	// Epsilon is the calibrated per-query ε, EpsilonG the derived
	// capacity.
	Epsilon  float64
	EpsilonG float64
}

func fig6Dataset(o Options, augment int) (*dataset.Dataset, error) {
	cfg := dataset.DefaultCriteoConfig()
	cfg.Seed += o.Seed
	cfg.AugmentImpressions = augment
	if o.Quick {
		cfg.TotalConversions = 8000
		cfg.Users = 4000
		cfg.MinBatch = 100
	}
	return dataset.Criteo(cfg)
}

// Fig6 regenerates Fig. 6: budget consumption and query accuracy across the
// Criteo-like dataset's many advertisers, plus the Criteo++ augmentation
// study.
func Fig6(o Options) (*Fig6Result, error) {
	ds, err := fig6Dataset(o, 0)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{
		BudgetCDF:            make(map[workload.System]*stats.CDF),
		RMSRECDF:             make(map[workload.System]*stats.CDF),
		ExecutedFraction:     make(map[workload.System]float64),
		EpochSweep:           make(map[workload.System][]stats.Summary),
		AugmentCDF:           make(map[int]*stats.CDF),
		AugmentLevels:        Fig6AugmentLevels,
		EpochLengths:         Fig6EpochLengths,
		QueryableAdvertisers: len(ds.Advertisers),
	}
	if o.Quick {
		res.EpochLengths = []int{7, 30}
		res.AugmentLevels = []int{0, 4}
	}

	// Advertisers calibrate individually (their match rates differ); the
	// capacity derives from the median advertiser's ε, so dense
	// advertisers fit comfortably while sparse ones exceed capacity —
	// the regime behind the paper's Fig. 6b error tail.
	var epss []float64
	for _, adv := range ds.Advertisers {
		epss = append(epss, privacy.DefaultCalibration.Epsilon(
			adv.MaxValue, adv.BatchSize, adv.AvgReportValue))
	}
	sort.Float64s(epss)
	res.Epsilon = epss[len(epss)/2]
	res.EpsilonG = res.Epsilon / fig6EpsilonRatio

	for _, sys := range workload.Systems {
		run, err := workload.Execute(workload.Config{
			Dataset:     ds,
			System:      sys,
			EpochDays:   7,
			EpsilonG:    res.EpsilonG,
			Seed:        o.Seed + 60,
			Parallelism: o.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		res.BudgetCDF[sys] = stats.NewCDF(run.PerPairAverages())
		res.RMSRECDF[sys] = stats.NewCDF(run.RMSREs())
		res.ExecutedFraction[sys] = run.ExecutedFraction()
		res.Queries = len(run.Results)

		for _, days := range res.EpochLengths {
			sweep, err := workload.Execute(workload.Config{
				Dataset:     ds,
				System:      sys,
				EpochDays:   days,
				EpsilonG:    res.EpsilonG,
				Seed:        o.Seed + 61,
				Parallelism: o.Parallelism,
			})
			if err != nil {
				return nil, err
			}
			res.EpochSweep[sys] = append(res.EpochSweep[sys], stats.Summarize(sweep.RMSREs()))
		}
	}
	res.AugmentARA = res.BudgetCDF[workload.ARALike]

	// Panel d: Cookie Monster under increasing augmentation. ARA-like and
	// IPA-like are augmentation-invariant (they never look at relevant
	// impressions when charging), so only CM is re-run.
	for _, level := range res.AugmentLevels {
		if level == 0 {
			res.AugmentCDF[0] = res.BudgetCDF[workload.CookieMonster]
			continue
		}
		aug, err := fig6Dataset(o, level)
		if err != nil {
			return nil, err
		}
		run, err := workload.Execute(workload.Config{
			Dataset:     aug,
			System:      workload.CookieMonster,
			EpochDays:   7,
			EpsilonG:    res.EpsilonG,
			Seed:        o.Seed + 60,
			Parallelism: o.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		res.AugmentCDF[level] = stats.NewCDF(run.PerPairAverages())
	}
	return res, nil
}

// Tables renders the four panels.
func (r *Fig6Result) Tables() []Table {
	var tables []Table
	quantiles := []float64{0.5, 0.75, 0.9, 0.95, 0.99, 1.0}

	ta := Table{
		ID:      "fig6a",
		Title:   fmt.Sprintf("CDF of per-(device, advertiser) avg budget across epochs (normalized by ε^G=%.3g; %d advertisers, %d queries)", r.EpsilonG, r.QueryableAdvertisers, r.Queries),
		Columns: []string{"percentile"},
	}
	for _, sys := range workload.Systems {
		ta.Columns = append(ta.Columns, sys.String())
	}
	for _, q := range quantiles {
		row := []string{pct(q)}
		for _, sys := range workload.Systems {
			row = append(row, f(r.BudgetCDF[sys].Quantile(q)))
		}
		ta.Rows = append(ta.Rows, row)
	}
	tables = append(tables, ta)

	tb := Table{
		ID:      "fig6b",
		Title:   "CDF of query RMSRE (7-day epoch)",
		Columns: []string{"percentile"},
	}
	for _, sys := range workload.Systems {
		tb.Columns = append(tb.Columns, fmt.Sprintf("%s (%s exec)", sys, pct(r.ExecutedFraction[sys])))
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.96, 0.99} {
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

	tc := Table{
		ID:      "fig6c",
		Title:   "RMSRE vs epoch length (median [q1, q3] (min–max))",
		Columns: []string{"epoch-days"},
	}
	for _, sys := range workload.Systems {
		tc.Columns = append(tc.Columns, sys.String())
	}
	for i, days := range r.EpochLengths {
		row := []string{fmt.Sprintf("%d", days)}
		for _, sys := range workload.Systems {
			s := r.EpochSweep[sys][i]
			row = append(row, fmt.Sprintf("%s [%s, %s] (%s–%s)",
				f(s.Median), f(s.Q1), f(s.Q3), f(s.Min), f(s.Max)))
		}
		tc.Rows = append(tc.Rows, row)
	}
	tables = append(tables, tc)

	td := Table{
		ID:      "fig6d",
		Title:   "Criteo++: Cookie Monster budget CDF vs impression augmentation (ARA-like reference unchanged)",
		Columns: []string{"percentile"},
	}
	for _, level := range r.AugmentLevels {
		td.Columns = append(td.Columns, fmt.Sprintf("cm+%d", level))
	}
	td.Columns = append(td.Columns, "ara-like")
	for _, q := range quantiles {
		row := []string{pct(q)}
		for _, level := range r.AugmentLevels {
			row = append(row, f(r.AugmentCDF[level].Quantile(q)))
		}
		row = append(row, f(r.AugmentARA.Quantile(q)))
		td.Rows = append(td.Rows, row)
	}
	tables = append(tables, td)
	return tables
}
