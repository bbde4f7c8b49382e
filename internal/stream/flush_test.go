package stream_test

import (
	"slices"
	"testing"

	"repro/internal/stream"
)

// TestFlushGranularity fences Flush's canonical sort and the day multiplex.
// Both front ends flush a fire day's whole due list at once, in the order
// the batches filled; over one frozen store, that must release exactly what
// one Flush per query in the schedule's (site, product, seq) order —
// stated independently by PlanOrder — releases: results and consumed budget
// bit for bit, at any parallelism. No front end flushes per query any more,
// so the per-query arm is a reference, not a mirror of workload.Execute; a
// change to Flush's sort or to how the super-batch serializes a device's
// operations fails here first.
func TestFlushGranularity(t *testing.T) {
	for _, name := range []string{"criteo-cm", "criteo-ipa"} {
		t.Run(name, func(t *testing.T) {
			wc := figureConfig(t, name)
			db := wc.Dataset.Build(7)
			for _, par := range []int{1, 4} {
				scfg := stream.Config{
					EpsilonG:    wc.EpsilonG,
					Seed:        wc.Seed,
					System:      wc.System,
					Parallelism: par,
				}
				days := stream.PlanDays(scfg, wc.Dataset.Stream())

				perDay := stream.NewEngine(scfg, wc.Dataset.Meta(), db)
				multiplexed := false
				for _, day := range days {
					multiplexed = multiplexed || len(day) > 1
					if err := perDay.Flush(slices.Clone(day), nil); err != nil {
						t.Fatal(err)
					}
				}
				if !multiplexed {
					t.Fatal("no fire day holds two queries: the day multiplex is not exercised")
				}

				perQuery := stream.NewEngine(scfg, wc.Dataset.Meta(), db)
				for _, day := range days {
					stream.PlanOrder(day)
					for _, q := range day {
						if err := perQuery.Flush([]*stream.Query{q}, nil); err != nil {
							t.Fatal(err)
						}
					}
				}

				a, b := perQuery.Run(), perDay.Run()
				if len(a.Results) == 0 {
					t.Fatal("no query executed")
				}
				resultsIdentical(t, name, a.Results, b.Results)
				if a.TotalConsumed != b.TotalConsumed {
					t.Fatalf("parallelism %d: consumed %v per query, %v per day", par, a.TotalConsumed, b.TotalConsumed)
				}
			}
		})
	}
}
