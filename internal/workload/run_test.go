package workload

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
)

// smallMicro builds a fast microbenchmark dataset for tests.
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

func execute(t *testing.T, cfg Config) *Run {
	t.Helper()
	r, err := Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestExecuteRunsAllQueriesOnDevice(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.1)
	for _, sys := range []System{CookieMonster, ARALike} {
		r := execute(t, Config{Dataset: ds, System: sys, EpsilonG: 5, Seed: 1})
		if len(r.Results) != 20 {
			t.Fatalf("%v: %d queries, want 20", sys, len(r.Results))
		}
		if r.ExecutedFraction() != 1 {
			t.Fatalf("%v: on-device system rejected queries", sys)
		}
		for _, res := range r.Results {
			if res.Batch != 100 {
				t.Fatalf("%v: batch = %d", sys, res.Batch)
			}
			if res.Truth < 0 {
				t.Fatalf("%v: negative truth", sys)
			}
		}
	}
}

func TestQueriesOrderedByFireDay(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.1)
	r := execute(t, Config{Dataset: ds, System: CookieMonster, EpsilonG: 5, Seed: 1})
	for i, res := range r.Results {
		if res.Index != i {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
	}
}

func TestCookieMonsterConsumesLessThanARA(t *testing.T) {
	// The headline Q1 result: same workload, CM's average budget is
	// strictly below ARA-like's, which is below IPA-like's.
	ds := smallMicro(t, 0.1, 0.1)
	avgs := make(map[System]float64)
	for _, sys := range Systems {
		r := execute(t, Config{Dataset: ds, System: sys, EpsilonG: 5, Seed: 1, FixedEpsilon: 1})
		avg, max := r.BudgetStats()
		if avg < 0 || max < avg {
			t.Fatalf("%v: avg=%v max=%v inconsistent", sys, avg, max)
		}
		avgs[sys] = avg
	}
	if !(avgs[CookieMonster] < avgs[ARALike]) {
		t.Fatalf("CM avg %v !< ARA avg %v", avgs[CookieMonster], avgs[ARALike])
	}
	if !(avgs[ARALike] < avgs[IPALike]) {
		t.Fatalf("ARA avg %v !< IPA avg %v", avgs[ARALike], avgs[IPALike])
	}
}

func TestIPARejectsUnderHeavyLoad(t *testing.T) {
	// With a tiny capacity, IPA-like must reject some queries while the
	// on-device systems still execute everything.
	ds := smallMicro(t, 0.1, 0.1)
	ipa := execute(t, Config{Dataset: ds, System: IPALike, EpsilonG: 0.5, Seed: 1})
	if ipa.ExecutedFraction() >= 1 {
		t.Fatal("IPA executed everything under tiny capacity")
	}
	cm := execute(t, Config{Dataset: ds, System: CookieMonster, EpsilonG: 0.5, Seed: 1})
	if cm.ExecutedFraction() != 1 {
		t.Fatal("CM rejected queries")
	}
	// IPA's executed queries stay accurate (it never nullifies reports).
	for _, res := range ipa.Results {
		if res.Executed && res.Truth > 0 && res.RMSRE > 0.5 {
			t.Fatalf("IPA executed query has RMSRE %v", res.RMSRE)
		}
	}
}

func TestEstimatesTrackTruth(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.5) // dense impressions: high attribution
	r := execute(t, Config{Dataset: ds, System: CookieMonster, EpsilonG: 50, Seed: 1})
	for _, res := range r.Results {
		if res.Truth == 0 {
			continue
		}
		if res.RMSRE > 1.0 {
			t.Fatalf("query %d: estimate %v vs truth %v (RMSRE %v)",
				res.Index, res.Estimate, res.Truth, res.RMSRE)
		}
	}
}

func TestARAMoreBiasedThanCM(t *testing.T) {
	// Under budget pressure ARA-like nullifies more reports than CM.
	ds := smallMicro(t, 1.0, 0.1) // heavy per-device load
	cm := execute(t, Config{Dataset: ds, System: CookieMonster, EpsilonG: 2, Seed: 1})
	ara := execute(t, Config{Dataset: ds, System: ARALike, EpsilonG: 2, Seed: 1})
	cmDenied, araDenied := 0, 0
	for i := range cm.Results {
		cmDenied += cm.Results[i].DeniedReports
		araDenied += ara.Results[i].DeniedReports
	}
	if !(cmDenied < araDenied) {
		t.Fatalf("CM denied %d !< ARA denied %d", cmDenied, araDenied)
	}
}

func TestBiasMeasurementProducesEstimates(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.1)
	r := execute(t, Config{
		Dataset: ds, System: CookieMonster, EpsilonG: 2, Seed: 1,
		Bias: &core.BiasSpec{LastTouch: true},
	})
	for _, res := range r.Results {
		if res.BiasEstimate <= 0 {
			t.Fatalf("query %d: no bias estimate", res.Index)
		}
	}
}

func TestBiasMeasurementCostsBudget(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.1)
	plain := execute(t, Config{Dataset: ds, System: CookieMonster, EpsilonG: 5, Seed: 1})
	withBias := execute(t, Config{
		Dataset: ds, System: CookieMonster, EpsilonG: 5, Seed: 1,
		Bias: &core.BiasSpec{LastTouch: true},
	})
	a1, _ := plain.BudgetStats()
	a2, _ := withBias.BudgetStats()
	if !(a2 > a1) {
		t.Fatalf("bias measurement avg %v !> plain avg %v", a2, a1)
	}
}

func TestFixedEpsilonOverridesCalibration(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.1)
	r := execute(t, Config{
		Dataset: ds, System: CookieMonster, EpsilonG: 5, Seed: 1,
		FixedEpsilon: 0.123,
	})
	for _, res := range r.Results {
		if res.Epsilon != 0.123 {
			t.Fatalf("epsilon = %v, want fixed 0.123", res.Epsilon)
		}
	}
}

func TestMaxQueriesPerProduct(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.1)
	r := execute(t, Config{
		Dataset: ds, System: CookieMonster, EpsilonG: 5, Seed: 1,
		MaxQueriesPerProduct: 1,
	})
	if len(r.Results) != 10 {
		t.Fatalf("%d queries, want 10 (one per product)", len(r.Results))
	}
}

func TestTrackCumulativeMonotone(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.1)
	r := execute(t, Config{
		Dataset: ds, System: ARALike, EpsilonG: 5, Seed: 1,
		FixedEpsilon: 1,
	})
	series := r.CumulativeAvgBudget()
	if len(series) != len(r.Results) {
		t.Fatalf("series length %d", len(series))
	}
	if series[len(series)-1] <= 0 {
		t.Fatal("final cumulative budget is zero")
	}
	// The final snapshot equals the run's final population average, and
	// the series is monotone (filters only fill).
	if math.Abs(series[len(series)-1]-r.PopulationAvgBudget()) > 1e-9 {
		t.Fatalf("final snapshot %v != population avg %v",
			series[len(series)-1], r.PopulationAvgBudget())
	}
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1]-1e-12 {
			t.Fatalf("cumulative series decreased at %d", i)
		}
	}
}

func TestPerPairAveragesShape(t *testing.T) {
	ds := smallMicro(t, 0.5, 0.1)
	for _, sys := range Systems {
		r := execute(t, Config{Dataset: ds, System: sys, EpsilonG: 5, Seed: 1})
		vals := r.PerPairAverages()
		want := ds.PopulationDevices * len(ds.Advertisers)
		if len(vals) != want {
			t.Fatalf("%v: %d pairs, want %d", sys, len(vals), want)
		}
		for _, v := range vals {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("%v: bad pair value %v", sys, v)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Execute(Config{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	ds := smallMicro(t, 0.1, 0.1)
	if _, err := Execute(Config{Dataset: ds, FixedEpsilon: -1}); err == nil {
		t.Fatal("negative fixed epsilon accepted")
	}
	// An advertiser outside the calibration domain is an error on both front
	// ends, whether or not FixedEpsilon bypasses the calibration formula.
	for name, mutate := range map[string]func(*dataset.Advertiser){
		"zero batch":            func(a *dataset.Advertiser) { a.BatchSize = 0 },
		"negative batch":        func(a *dataset.Advertiser) { a.BatchSize = -2 },
		"NaN max value":         func(a *dataset.Advertiser) { a.MaxValue = math.NaN() },
		"infinite max value":    func(a *dataset.Advertiser) { a.MaxValue = math.Inf(1) },
		"zero report value":     func(a *dataset.Advertiser) { a.AvgReportValue = 0 },
		"infinite report value": func(a *dataset.Advertiser) { a.AvgReportValue = math.Inf(1) },
	} {
		bad := *ds
		bad.Advertisers = slices.Clone(ds.Advertisers)
		mutate(&bad.Advertisers[0])
		for _, fixed := range []float64{0, 0.5} {
			cfg := Config{Dataset: &bad, EpsilonG: 5, FixedEpsilon: fixed}
			if _, err := Execute(cfg); err == nil {
				t.Errorf("%s, fixed ε %v: Execute accepted the advertiser", name, fixed)
			}
			if _, err := ExecuteSource(cfg, bad.Stream()); err == nil {
				t.Errorf("%s, fixed ε %v: ExecuteSource accepted the advertiser", name, fixed)
			}
		}
	}
}

func TestSystemString(t *testing.T) {
	if CookieMonster.String() != "cookie-monster" || ARALike.String() != "ara-like" ||
		IPALike.String() != "ipa-like" || System(9).String() != "System(9)" {
		t.Fatal("System.String wrong")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.1)
	a := execute(t, Config{Dataset: ds, System: CookieMonster, EpsilonG: 5, Seed: 7})
	b := execute(t, Config{Dataset: ds, System: CookieMonster, EpsilonG: 5, Seed: 7})
	for i := range a.Results {
		if a.Results[i].Estimate != b.Results[i].Estimate {
			t.Fatalf("query %d estimates differ: %v vs %v",
				i, a.Results[i].Estimate, b.Results[i].Estimate)
		}
	}
}

func TestWindowDaysControlsAttribution(t *testing.T) {
	// A shorter attribution window must find no more attributed value
	// than a longer one.
	ds := smallMicro(t, 0.1, 0.2)
	short := execute(t, Config{Dataset: ds, System: CookieMonster, EpsilonG: 50, WindowDays: 3, Seed: 1})
	long := execute(t, Config{Dataset: ds, System: CookieMonster, EpsilonG: 50, WindowDays: 30, Seed: 1})
	shortTruth, longTruth := 0.0, 0.0
	for i := range short.Results {
		shortTruth += short.Results[i].Truth
		longTruth += long.Results[i].Truth
	}
	if shortTruth > longTruth+1e-9 {
		t.Fatalf("3-day window attributed %v > 30-day window %v", shortTruth, longTruth)
	}
	if shortTruth == longTruth {
		t.Fatal("window length had no effect; dataset too dense to test")
	}
}

func TestEpochSpanCoversWindows(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.1)
	r := execute(t, Config{Dataset: ds, System: CookieMonster, EpsilonG: 5, Seed: 1})
	// Every query's window must fit inside the declared span.
	span := r.EpochSpan()
	if span <= r.TotalEpochs {
		t.Fatalf("span %d should exceed trace epochs %d (windows reach back)", span, r.TotalEpochs)
	}
	for _, q := range r.Results {
		if int(q.LastEpoch-q.FirstEpoch)+1 > span {
			t.Fatalf("query window [%d,%d] exceeds span %d", q.FirstEpoch, q.LastEpoch, span)
		}
	}
}

func TestPolicyOverride(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.1)
	r := execute(t, Config{
		Dataset: ds, System: CookieMonster, EpsilonG: 5, Seed: 1,
		FixedEpsilon:   1,
		PolicyOverride: core.ZeroLossOnlyPolicy{},
	})
	full := execute(t, Config{
		Dataset: ds, System: CookieMonster, EpsilonG: 5, Seed: 1,
		FixedEpsilon: 1,
	})
	avgOverride, _ := r.BudgetStats()
	avgFull, _ := full.BudgetStats()
	// Zero-loss-only charges more than full Cookie Monster.
	if !(avgOverride > avgFull) {
		t.Fatalf("override %v !> full %v", avgOverride, avgFull)
	}
}

// TestRequestedDeviceEpochsAndActiveDevices pins what the requested marks may
// and may not show. The denominator is a property of the trace and the
// windows, so every system counts the same device-epochs; and a lane that
// holds only marks — a querier whose windows on a device were all zero-loss,
// every lane of an IPA-like run — is invisible to the budget reads: a device
// reports exactly the queriers it has ledger rows for.
func TestRequestedDeviceEpochsAndActiveDevices(t *testing.T) {
	ds := smallMicro(t, 0.1, 0.1)
	requested := -1
	for _, tc := range []struct {
		system                 System
		wantRows, wantMarkOnly bool
	}{
		{CookieMonster, true, true}, // devices without a relevant impression charge nothing
		{ARALike, true, false},      // every requested epoch is charged
		{IPALike, false, true},      // budget is central: marks only, on every device
	} {
		r := execute(t, Config{Dataset: ds, System: tc.system, EpsilonG: 5, Seed: 1})
		if r.ActiveDevices() == 0 {
			t.Fatalf("%v: no active devices", tc.system)
		}
		if r.RequestedDeviceEpochs() < r.ActiveDevices() {
			t.Fatalf("%v: fewer requested device-epochs than active devices", tc.system)
		}
		if requested < 0 {
			requested = r.RequestedDeviceEpochs()
		} else if got := r.RequestedDeviceEpochs(); got != requested {
			t.Fatalf("%v: %d requested device-epochs, other systems %d", tc.system, got, requested)
		}
		rows, markOnly := 0, 0
		r.RangeDevices(func(d *core.Device) bool {
			charged := map[string]bool{}
			for _, row := range d.Ledger() {
				charged[string(row.Querier)] = true
				rows++
			}
			byQuerier := d.ConsumedByQuerier()
			for q := range byQuerier {
				if !charged[string(q)] {
					t.Fatalf("%v: device %d reports querier %s it has no ledger row for", tc.system, d.ID(), q)
				}
			}
			if len(byQuerier) != len(charged) {
				t.Fatalf("%v: device %d reports %d queriers, has rows for %d", tc.system, d.ID(), len(byQuerier), len(charged))
			}
			d.RangeRequested(func(_ events.Epoch, queriers []string, _ []float64) {
				for _, q := range queriers {
					if !charged[q] {
						markOnly++
					}
				}
			})
			return true
		})
		if (rows > 0) != tc.wantRows || (markOnly > 0) != tc.wantMarkOnly {
			t.Fatalf("%v: %d ledger rows (want any: %t), %d marks on lanes without a row (want any: %t)",
				tc.system, rows, tc.wantRows, markOnly, tc.wantMarkOnly)
		}
	}
}
