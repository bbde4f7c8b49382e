package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/stream"
)

// ScenariosResult is the hostile-traffic robustness report: one row per
// catalog scenario, each row a full pass through the harness's property
// gauntlet (batch-vs-stream equivalence, crash→resume identity) plus its
// degradation numbers.
type ScenariosResult struct {
	Reports []*scenario.Report
}

// Scenarios runs the hostile-traffic catalog — or a single named scenario —
// through the robustness harness (DESIGN.md §11). Unlike the figure
// harnesses, every scenario runs both front ends (the batch oracle and the
// streaming service) and its own checkpointed crash matrix. Quick trims the crash matrix to three representative
// fault points and two parallelism levels. out, when non-empty, also writes
// the reports as the REPORT_scenarios.json artifact.
func Scenarios(o Options, name, out string) (*ScenariosResult, error) {
	h, err := scenario.DefaultHarness()
	if err != nil {
		return nil, err
	}
	if o.Quick {
		h.Parallelisms = []int{1, 4}
		h.FaultPoints = []stream.FaultPoint{
			stream.PointEventIngested,
			stream.PointQueryExecuted,
			stream.PointSnapshotCommitted,
		}
	}
	specs := scenario.Catalog()
	if name != "" {
		sp, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		// Keep the clean baseline so the accuracy ratio stays defined.
		if sp.Name != "clean" {
			clean, err := scenario.ByName("clean")
			if err != nil {
				return nil, err
			}
			specs = []scenario.Spec{clean, sp}
		} else {
			specs = []scenario.Spec{sp}
		}
	}
	reports, err := h.RunCatalog(specs)
	if err != nil {
		return nil, err
	}
	if out != "" {
		if err := scenario.WriteBench(out, reports); err != nil {
			return nil, err
		}
	}
	return &ScenariosResult{Reports: reports}, nil
}

// Tables renders the robustness report.
func (r *ScenariosResult) Tables() []Table {
	t := Table{
		ID:    "scenarios",
		Title: "hostile-traffic robustness (every row passed stream≡batch and crash→resume identity)",
		Columns: []string{"scenario", "delivered", "dropped", "queries", "denials",
			"consumed ε", "RMSRE", "vs clean", "crash pts"},
	}
	for _, rep := range r.Reports {
		t.Rows = append(t.Rows, []string{
			rep.Name,
			fmt.Sprintf("%d", rep.EventsDelivered),
			fmt.Sprintf("%d", rep.EventsDropped),
			fmt.Sprintf("%d", rep.QueriesExecuted),
			fmt.Sprintf("%d", rep.LedgerDenials),
			f(rep.TotalEpsilon),
			f(rep.MeanRMSRE),
			f(rep.AccuracyVsClean),
			fmt.Sprintf("%d", rep.CrashPointsTested),
		})
	}
	return []Table{t}
}
