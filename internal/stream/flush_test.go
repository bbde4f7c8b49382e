package stream_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/stream"
)

// fleetState lists every device of a run in ID order with its ledger rows
// and requested marks.
func fleetState(run *stream.Run) []any {
	var st []any
	run.Fleet.Range(func(d *core.Device) bool {
		st = append(st, d.ID(), stream.LedgerState(d))
		return true
	})
	return st
}

// TestFlushGranularity fences Flush's canonical sort, the day multiplex and
// Replay's pipeline. Three arms run over fresh stores of one trace. The
// sequential arm flushes each fire day's whole due list at once, in the
// order the batches filled; it must release exactly what one Flush per
// query in the schedule's (site, product, seq) order — stated independently
// by PlanOrder — releases: results and consumed budget bit for bit. Replay,
// which plans ahead on one goroutine and folds a day while the next
// generates, must match the sequential arm in results, consumed budget,
// retired nonces and every device's ledger and marks. Each holds at any
// parallelism. No front end flushes per query any more, so the per-query
// arm is a reference, not a mirror of workload.Execute; a change to Flush's
// sort or to how the super-batch serializes a device's operations fails
// here first, and a pipeline stage that reads what another is writing
// fails the Replay arm.
func TestFlushGranularity(t *testing.T) {
	for _, name := range []string{"criteo-cm", "criteo-ara", "criteo-ipa"} {
		t.Run(name, func(t *testing.T) {
			wc := figureConfig(t, name)
			meta := wc.Dataset.Meta()
			for _, par := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s parallelism %d", name, par)
				scfg := stream.Config{
					EpsilonG:    wc.EpsilonG,
					Seed:        wc.Seed,
					System:      wc.System,
					Parallelism: par,
				}
				days := stream.PlanDays(scfg, wc.Dataset.Stream())

				perDay := stream.NewEngine(scfg, meta, events.NewFrozen(7, wc.Dataset.Events))
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

				perQuery := stream.NewEngine(scfg, meta, events.NewFrozen(7, wc.Dataset.Events))
				for _, day := range days {
					stream.PlanOrder(day)
					for _, q := range day {
						if err := perQuery.Flush([]*stream.Query{q}, nil); err != nil {
							t.Fatal(err)
						}
					}
				}

				replay := stream.NewEngine(scfg, meta, nil)
				if err := replay.Replay(wc.Dataset.Events); err != nil {
					t.Fatal(err)
				}

				a, b, c := perQuery.Run(), perDay.Run(), replay.Run()
				if len(a.Results) == 0 {
					t.Fatal("no query executed")
				}
				resultsIdentical(t, label+" per query vs per day", a.Results, b.Results)
				if a.TotalConsumed != b.TotalConsumed {
					t.Fatalf("%s: consumed %v per query, %v per day", label, a.TotalConsumed, b.TotalConsumed)
				}
				resultsIdentical(t, label+" per day vs replay", b.Results, c.Results)
				if b.TotalConsumed != c.TotalConsumed || b.RetiredNonces != c.RetiredNonces {
					t.Fatalf("%s: consumed %v and %d nonces retired per day, %v and %d replayed",
						label, b.TotalConsumed, b.RetiredNonces, c.TotalConsumed, c.RetiredNonces)
				}
				if b.RetiredNonces == 0 && wc.System != stream.IPALike { // central runs mint no nonces
					t.Fatalf("%s: no nonce retired", label)
				}
				if !reflect.DeepEqual(fleetState(b), fleetState(c)) {
					t.Fatalf("%s: device ledgers or marks differ between the per-day flushes and Replay", label)
				}
			}
		})
	}
}
