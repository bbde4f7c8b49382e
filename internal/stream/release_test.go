package stream

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
)

// runReads is what a finished run's ledger reads report, device by device
// in Range order: requested marks with what each querier consumed, the
// per-querier totals, the denial count and the ledger version.
func runReads(run *Run) []string {
	var out []string
	run.Fleet.Range(func(d *core.Device) bool {
		s := fmt.Sprintf("device %d: totals %v denials %d version %d",
			d.ID(), d.ConsumedByQuerier(), d.BudgetDenials(), d.LedgerVersion())
		d.RangeRequested(func(e events.Epoch, queriers []events.Site, consumed []float64) {
			s += fmt.Sprint(" ", e, queriers, consumed)
		})
		out = append(out, s)
		return true
	})
	return out
}

// releaseTrace is a micro trace with a query every few days, so a run
// crashed mid-trace still has fire days left after it resumes.
func releaseTrace(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultMicroConfig()
	cfg.BatchSize = 50
	ds, err := dataset.Micro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// readsOnDayFlushed returns a fault hook that records the run's ledger reads
// after every flushed day while *svc is set: at the end of Serve, the reads
// of the final state before the release.
func readsOnDayFlushed(svc **Service, reads *[]string) FaultHook {
	return func(p FaultPoint) error {
		if p == PointDayFlushed && *svc != nil {
			*reads = runReads((*svc).run)
		}
		return nil
	}
}

// TestFinishedRunReleasesStore pins that a finished run holds budget state
// and results, not the engine's event store: with the *Run the only
// reference left, the store is collected, and the run's ledger reads still
// answer what they answered before the release. One row per path that
// hands back a Run — the batch front end's Replay over a frozen arena, a
// service run to completion, and a service resumed from a crash.
func TestFinishedRunReleasesStore(t *testing.T) {
	ds := releaseTrace(t)
	scfg := Config{EpsilonG: 1, Seed: 7, Parallelism: 2}

	rows := []struct {
		name string
		// run returns the finished run, a weak pointer to the store it was
		// computed over, and its ledger reads recorded before the release.
		run func(t *testing.T) (*Run, weak.Pointer[events.Database], []string)
	}{
		{"replay", func(t *testing.T) (*Run, weak.Pointer[events.Database], []string) {
			// Replay releases inside, so the reference is a twin engine fed
			// the same fire days through Flush, which never releases.
			twin := NewEngine(scfg, ds.Meta(), events.NewFrozen(7, ds.Events))
			for _, day := range PlanDays(scfg, ds.Stream()) {
				if err := twin.Flush(day, nil); err != nil {
					t.Fatal(err)
				}
			}
			eng := NewEngine(scfg, ds.Meta(), nil)
			if err := eng.Replay(ds.Events); err != nil {
				t.Fatal(err)
			}
			return eng.Run(), weak.Make(eng.db), runReads(twin.Run())
		}},
		{"serve", func(t *testing.T) (*Run, weak.Pointer[events.Database], []string) {
			var svc *Service
			var want []string
			cfg := scfg
			cfg.Source = ds.Stream()
			cfg.FaultHook = readsOnDayFlushed(&svc, &want)
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wp := weak.Make(svc.db)
			run, err := svc.Serve()
			if err != nil {
				t.Fatal(err)
			}
			return run, wp, want
		}},
		{"resume", func(t *testing.T) (*Run, weak.Pointer[events.Database], []string) {
			dir := t.TempDir()
			errCrash := errors.New("crash")
			days := 0
			cfg := scfg
			cfg.Source = ds.Stream()
			cfg.CheckpointDir = dir
			cfg.SnapshotEveryDays = 7
			cfg.FaultHook = func(p FaultPoint) error {
				if p == PointDayFlushed {
					if days++; days == 50 {
						return errCrash
					}
				}
				return nil
			}
			crashed, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := crashed.Serve(); !errors.Is(err, errCrash) {
				t.Fatalf("crash run gave err = %v", err)
			}

			var svc *Service
			var want []string
			cfg.Source = ds.Stream()
			cfg.FaultHook = readsOnDayFlushed(&svc, &want)
			svc, err = ResumeFrom(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			wp := weak.Make(svc.db)
			run, err := svc.Serve()
			if err != nil {
				t.Fatal(err)
			}
			return run, wp, want
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			run, store, want := row.run(t)
			if len(run.Results) == 0 || len(want) == 0 {
				t.Fatalf("%d results, %d devices read before the release: nothing to hold", len(run.Results), len(want))
			}
			if got := runReads(run); !reflect.DeepEqual(got, want) {
				t.Fatalf("ledger reads changed across the release:\nbefore %v\nafter  %v", want, got)
			}
			runtime.GC()
			runtime.GC()
			if store.Value() != nil {
				t.Fatal("the finished run still pins its event store")
			}
			if got := runReads(run); !reflect.DeepEqual(got, want) {
				t.Fatal("ledger reads changed once the store was collected")
			}
		})
	}
}
