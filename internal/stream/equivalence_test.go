package stream_test

// The streaming-vs-batch equivalence suite: the batch engine
// (workload.Execute) is the specification, the streaming service is the
// online implementation, and the contract is bit-identical QueryResults —
// same estimates, same denial counts, same budget trajectories — for the
// same seed and scenario, at any parallelism.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/figures"
	"repro/internal/workload"
)

func smallMicro(t *testing.T, knob1, knob2 float64) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultMicroConfig()
	cfg.BatchSize = 100
	cfg.Knob1 = knob1
	cfg.Knob2 = knob2
	ds, err := dataset.Micro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// figureConfig returns a cataloged figure workload's configuration.
func figureConfig(t *testing.T, name string) workload.Config {
	t.Helper()
	w, err := figures.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := w.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// resultsIdentical compares QueryResult slices bit-for-bit (struct equality
// covers every field including the budget snapshot; the NaN RMSRE of
// unexecuted queries is normalized first).
func resultsIdentical(t *testing.T, label string, a, b []workload.QueryResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		nx, ny := math.IsNaN(x.RMSRE), math.IsNaN(y.RMSRE)
		if nx && ny {
			x.RMSRE, y.RMSRE = 0, 0
		}
		if x != y {
			t.Fatalf("%s: query %d differs:\n  %+v\n  %+v", label, i, a[i], b[i])
		}
	}
}

// metricsIdentical compares every post-run budget metric the experiment
// harnesses read.
func metricsIdentical(t *testing.T, label string, batch, streamed *workload.Run) {
	t.Helper()
	bAvg, bMax := batch.BudgetStats()
	sAvg, sMax := streamed.BudgetStats()
	if bAvg != sAvg || bMax != sMax {
		t.Fatalf("%s: budget stats (%v, %v) != (%v, %v)", label, sAvg, sMax, bAvg, bMax)
	}
	if b, s := batch.PopulationAvgBudget(), streamed.PopulationAvgBudget(); b != s {
		t.Fatalf("%s: population avg budget %v != %v", label, s, b)
	}
	if b, s := batch.ExecutedFraction(), streamed.ExecutedFraction(); b != s {
		t.Fatalf("%s: executed fraction %v != %v", label, s, b)
	}
	if b, s := batch.RequestedDeviceEpochs(), streamed.RequestedDeviceEpochs(); b != s {
		t.Fatalf("%s: requested device-epochs %d != %d", label, s, b)
	}
	bp, sp := batch.PerPairAverages(), streamed.PerPairAverages()
	if len(bp) != len(sp) {
		t.Fatalf("%s: %d pair averages, want %d", label, len(sp), len(bp))
	}
	for i := range bp {
		if bp[i] != sp[i] {
			t.Fatalf("%s: pair average %d: %v != %v", label, i, sp[i], bp[i])
		}
	}
}

// TestStreamingBatchEquivalence is the tentpole's acceptance check: for
// every system (and with bias measurement and an ablation policy override),
// the streaming service must reproduce the batch engine's QueryResults
// bit-identically at parallelism 1, 4, and GOMAXPROCS. The batch reference
// comes from the shared per-binary cache (golden_test.go), whose digest is
// itself pinned by testdata/golden/.
func TestStreamingBatchEquivalence(t *testing.T) {
	for _, name := range []string{
		"cookie-monster", "ara-like", "ipa-like",
		"cm-bias", "ablation-policy", "capped-queries",
	} {
		t.Run(name, func(t *testing.T) {
			batch := batchRef(t, name)
			if len(batch.Results) == 0 {
				t.Fatal("batch run produced no queries")
			}
			for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				cfg := figureConfig(t, name)
				cfg.Parallelism = par
				streamed, err := workload.ExecuteStream(cfg)
				if err != nil {
					t.Fatal(err)
				}
				resultsIdentical(t, name, batch.Results, streamed.Results)
				metricsIdentical(t, name, batch, streamed)
			}
		})
	}
}

// TestStreamingEquivalenceCriteo covers the multi-advertiser case, where
// many queriers' batches fill on the same day and the service multiplexes
// them through one super-batch — the regime where a wrong canonical order or
// a device shared across queriers would diverge from the batch schedule.
func TestStreamingEquivalenceCriteo(t *testing.T) {
	for _, name := range []string{"criteo-cm", "criteo-ara", "criteo-ipa"} {
		batch := batchRef(t, name)
		if len(batch.Results) < 10 {
			t.Fatalf("criteo run produced only %d queries", len(batch.Results))
		}
		cfg := figureConfig(t, name)
		cfg.Parallelism = runtime.GOMAXPROCS(0)
		streamed, err := workload.ExecuteStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resultsIdentical(t, name, batch.Results, streamed.Results)
		metricsIdentical(t, name, batch, streamed)
	}
}

// TestStreamingEquivalenceSyntheticSource runs the generator-backed source
// both ways: materialized through the batch engine (the cataloged
// "synthetic-cm" workload), and streamed directly from a fresh generator —
// the trace is never held in memory on the streaming side.
func TestStreamingEquivalenceSyntheticSource(t *testing.T) {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Population = 2000
	cfg.BatchSize = 200
	cfg.ImpressionsPerDay = 0.3
	newSource := func() dataset.Source {
		src, err := dataset.NewSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	batch := batchRef(t, "synthetic-cm")
	if len(batch.Results) == 0 {
		t.Fatal("no queries from synthetic source")
	}
	// The streaming side passes no Dataset at all: the scenario comes from
	// the source's metadata, and the Run's metrics must still work
	// (metricsIdentical reads the population- and advertiser-dependent
	// ones).
	scfg := figureConfig(t, "synthetic-cm")
	scfg.Dataset = nil
	streamed, err := workload.ExecuteSource(scfg, newSource())
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, "synthetic", batch.Results, streamed.Results)
	metricsIdentical(t, "synthetic", batch, streamed)
}
