package workload

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
)

// resultsEqual compares two QueryResult slices field-for-field, treating the
// NaN RMSRE of unexecuted queries as equal to itself (struct equality would
// call NaN != NaN a mismatch).
func resultsEqual(t *testing.T, label string, a, b []QueryResult) {
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

// TestParallelismDeterminism is the tentpole's acceptance check: the same
// seed must produce byte-identical Run results — estimates, denied/biased
// counts, and budget totals — at Parallelism 1, 4, and GOMAXPROCS, for every
// system and with bias measurement on.
func TestParallelismDeterminism(t *testing.T) {
	// Dense per-device load so batches hold several conversions per
	// device and denials actually occur — the regime where a wrong
	// schedule would change which epoch a denial lands on.
	ds := smallMicro(t, 1.0, 0.5)
	bias := &core.BiasSpec{LastTouch: true}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"cookie-monster", Config{Dataset: ds, System: CookieMonster, EpsilonG: 2, Seed: 7}},
		{"ara-like", Config{Dataset: ds, System: ARALike, EpsilonG: 2, Seed: 7}},
		{"ipa-like", Config{Dataset: ds, System: IPALike, EpsilonG: 2, Seed: 7}},
		{"cm-bias", Config{Dataset: ds, System: CookieMonster, EpsilonG: 2, Seed: 7, Bias: bias}},
	}
	levels := []int{4, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := tc.cfg
			seq.Parallelism = 1
			base := execute(t, seq)
			baseAvg, baseMax := base.BudgetStats()
			for _, par := range levels {
				cfg := tc.cfg
				cfg.Parallelism = par
				r := execute(t, cfg)
				resultsEqual(t, tc.name, base.Results, r.Results)
				if r.totalConsumed != base.totalConsumed {
					t.Fatalf("parallelism %d: totalConsumed %v != %v",
						par, r.totalConsumed, base.totalConsumed)
				}
				if avg, max := r.BudgetStats(); avg != baseAvg || max != baseMax {
					t.Fatalf("parallelism %d: budget stats (%v, %v) != (%v, %v)",
						par, avg, max, baseAvg, baseMax)
				}
				if got, want := r.PopulationAvgBudget(), base.PopulationAvgBudget(); got != want {
					t.Fatalf("parallelism %d: population avg %v != %v", par, got, want)
				}
				pp, bp := r.PerPairAverages(), base.PerPairAverages()
				if len(pp) != len(bp) {
					t.Fatalf("parallelism %d: %d pair averages, want %d", par, len(pp), len(bp))
				}
				for i := range pp {
					if pp[i] != bp[i] {
						t.Fatalf("parallelism %d: pair average %d: %v != %v", par, i, pp[i], bp[i])
					}
				}
			}
		})
	}
}

// TestParallelismMatchesAcrossRepeats re-runs the parallel engine and checks
// it agrees with itself (schedules differ between runs; results must not).
func TestParallelismMatchesAcrossRepeats(t *testing.T) {
	ds := smallMicro(t, 0.5, 0.5)
	cfg := Config{Dataset: ds, System: CookieMonster, EpsilonG: 2, Seed: 11,
		Parallelism: runtime.GOMAXPROCS(0)}
	a := execute(t, cfg)
	b := execute(t, cfg)
	resultsEqual(t, "repeat", a.Results, b.Results)
}

func TestParallelismValidation(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.1)
	if _, err := Execute(Config{Dataset: ds, Parallelism: -1}); err == nil {
		t.Fatal("negative parallelism accepted")
	}
}
