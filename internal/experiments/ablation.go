package experiments

import (
	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/workload"
)

// AblationResult decomposes Cookie Monster's budget savings across the
// §4.3 optimization ladder (DESIGN.md's ablation study): the same
// microbenchmark workload runs under each partial loss policy, isolating
// the contribution of the zero-loss, report-cap and single-epoch
// optimizations.
type AblationResult struct {
	// Policies lists the ladder in increasing-savings order.
	Policies []string
	// AvgBudget[i] is the average normalized budget across requested
	// device-epochs under Policies[i].
	AvgBudget []float64
	// MaxBudget[i] is the corresponding maximum.
	MaxBudget []float64
	// DeniedReports[i] counts reports with at least one denied epoch.
	DeniedReports []int
	// Epsilon and EpsilonG record the calibration.
	Epsilon, EpsilonG float64
}

// Ablation runs the optimization-ladder study on the default
// microbenchmark.
func Ablation(o Options) (*AblationResult, error) {
	ds, err := fig4Micro(o, 0.1, 0.1)
	if err != nil {
		return nil, err
	}
	adv := ds.Advertisers[0]
	eps := privacy.DefaultCalibration.Epsilon(adv.MaxValue, adv.BatchSize, adv.AvgReportValue)
	res := &AblationResult{Epsilon: eps, EpsilonG: eps / fig4EpsilonRatio}

	for _, policy := range core.AblationPolicies {
		run, err := workload.Execute(workload.Config{
			Dataset:      ds,
			System:       workload.CookieMonster,
			Policy:       policy,
			EpsilonG:     res.EpsilonG,
			FixedEpsilon: eps,
			Seed:         o.Seed + 80,
			Parallelism:  o.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		avg, max := run.BudgetStats()
		denied := 0
		for _, q := range run.Results {
			denied += q.DeniedReports
		}
		res.Policies = append(res.Policies, policy.Name())
		res.AvgBudget = append(res.AvgBudget, avg)
		res.MaxBudget = append(res.MaxBudget, max)
		res.DeniedReports = append(res.DeniedReports, denied)
	}
	return res, nil
}

// Tables renders the ladder.
func (r *AblationResult) Tables() []Table {
	t := Table{
		ID:      "ablation",
		Title:   "optimization ladder: budget consumption per §4.3 optimization subset",
		Columns: []string{"policy", "avg-budget", "max-budget", "denied-reports"},
	}
	for i, name := range r.Policies {
		t.Rows = append(t.Rows, []string{
			name, f(r.AvgBudget[i]), f(r.MaxBudget[i]),
			f(float64(r.DeniedReports[i])),
		})
	}
	return []Table{t}
}
