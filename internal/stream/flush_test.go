package stream_test

import (
	"slices"
	"testing"

	"repro/internal/stream"
	"repro/internal/workload"
)

// TestFlushGranularity isolates the one thing the two front ends do
// differently with the shared executor: how many queries one Flush carries.
// Over one frozen store, one Flush per query in plan order (what
// workload.Execute does) must release exactly what one Flush per fire day
// with that day's whole due list, in the order the batches filled (what the
// service does), releases — results and consumed budget bit for bit, at any
// parallelism. The equivalence suites only ever vary granularity together
// with the store, the planner and retention; a change to Flush's canonical
// sort or to the day multiplex fails here first.
func TestFlushGranularity(t *testing.T) {
	for _, name := range []string{"criteo-cm", "criteo-ipa"} {
		t.Run(name, func(t *testing.T) {
			wc := figureConfig(t, name)
			db := wc.Dataset.Build(7)
			for _, par := range []int{1, 4} {
				scfg := stream.Config{
					EpsilonG:    wc.EpsilonG,
					Seed:        wc.Seed,
					Central:     wc.System == workload.IPALike,
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
