package experiments

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

var quick = Options{Quick: true}

func TestFig4ShapesHold(t *testing.T) {
	r, err := Fig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range workload.Systems {
		if len(r.AvgByKnob1[sys]) != len(r.Knob1) || len(r.AvgByKnob2[sys]) != len(r.Knob2) {
			t.Fatalf("%v: series length mismatch", sys)
		}
	}
	// The paper's qualitative claims: CM ≤ ARA at every sweep point, and
	// ARA ≤ IPA up to saturation noise (at knob1 = 1 both converge near
	// capacity, as in Fig. 4a's rightmost points).
	for i := range r.Knob1 {
		cm := r.AvgByKnob1[workload.CookieMonster][i]
		ara := r.AvgByKnob1[workload.ARALike][i]
		ipa := r.AvgByKnob1[workload.IPALike][i]
		if !(cm <= ara+1e-12 && ara <= ipa*1.05+1e-12) {
			t.Fatalf("knob1=%v: ordering broken cm=%v ara=%v ipa=%v",
				r.Knob1[i], cm, ara, ipa)
		}
	}
	// At the lowest participation the gap is strict and large.
	if !(r.AvgByKnob1[workload.ARALike][0] < 0.5*r.AvgByKnob1[workload.IPALike][0]) {
		t.Fatalf("low-knob1 ARA %v not well below IPA %v",
			r.AvgByKnob1[workload.ARALike][0], r.AvgByKnob1[workload.IPALike][0])
	}
	// IPA's average is knob1-invariant (population-level accounting).
	ipa := r.AvgByKnob1[workload.IPALike]
	for i := 1; i < len(ipa); i++ {
		if relDiff(ipa[i], ipa[0]) > 0.15 {
			t.Fatalf("IPA avg varies with knob1: %v", ipa)
		}
	}
	// On-device consumption grows with participation (knob1).
	ara := r.AvgByKnob1[workload.ARALike]
	if !(ara[0] < ara[len(ara)-1]) {
		t.Fatalf("ARA avg not increasing in knob1: %v", ara)
	}
	// CM's advantage over ARA shrinks as impressions densify (knob2).
	gapLo := r.AvgByKnob2[workload.ARALike][0] - r.AvgByKnob2[workload.CookieMonster][0]
	last := len(r.Knob2) - 1
	gapHi := r.AvgByKnob2[workload.ARALike][last] - r.AvgByKnob2[workload.CookieMonster][last]
	if !(gapHi < gapLo) {
		t.Fatalf("CM advantage did not shrink with knob2: gaps %v -> %v", gapLo, gapHi)
	}
	if len(r.Tables()) != 4 {
		t.Fatal("fig4 must have 4 panels")
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	d := (a - b) / b
	if d < 0 {
		return -d
	}
	return d
}

func TestFig5ShapesHold(t *testing.T) {
	r, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	// On-device systems execute everything; IPA-like rejects some.
	if r.ExecutedFraction[workload.CookieMonster] != 1 ||
		r.ExecutedFraction[workload.ARALike] != 1 {
		t.Fatal("on-device system rejected queries")
	}
	if r.ExecutedFraction[workload.IPALike] >= 1 {
		t.Fatalf("IPA executed everything (%v); budget should deplete",
			r.ExecutedFraction[workload.IPALike])
	}
	// CM's final average budget is below ARA's.
	cm := r.CumulativeAvg[workload.CookieMonster]
	ara := r.CumulativeAvg[workload.ARALike]
	if !(cm[len(cm)-1] < ara[len(ara)-1]) {
		t.Fatalf("CM final avg %v !< ARA %v", cm[len(cm)-1], ara[len(ara)-1])
	}
	// Cumulative averages are non-decreasing (filters only fill).
	for i := 1; i < len(cm); i++ {
		if cm[i] < cm[i-1]-1e-12 {
			t.Fatalf("CM cumulative avg decreased at %d: %v -> %v", i, cm[i-1], cm[i])
		}
	}
	// CM's median error is no worse than ARA's.
	if r.RMSRECDF[workload.CookieMonster].Quantile(0.5) > r.RMSRECDF[workload.ARALike].Quantile(0.5)+1e-9 {
		t.Fatal("CM median RMSRE worse than ARA")
	}
	if len(r.Tables()) != 3 {
		t.Fatal("fig5 must have 3 panels")
	}
}

func TestFig6ShapesHold(t *testing.T) {
	r, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.Queries == 0 || r.QueryableAdvertisers == 0 {
		t.Fatal("no queries planned")
	}
	// Budget CDF: CM's 95th percentile pair consumption below baselines'.
	q95 := func(sys workload.System) float64 { return r.BudgetCDF[sys].Quantile(0.95) }
	if !(q95(workload.CookieMonster) <= q95(workload.ARALike)+1e-12) {
		t.Fatalf("CM 95th pct budget %v !<= ARA %v", q95(workload.CookieMonster), q95(workload.ARALike))
	}
	if !(q95(workload.CookieMonster) <= q95(workload.IPALike)+1e-12) {
		t.Fatalf("CM 95th pct budget %v !<= IPA %v", q95(workload.CookieMonster), q95(workload.IPALike))
	}
	// Criteo++: augmentation pushes CM's budget toward ARA's.
	lo := r.AugmentCDF[r.AugmentLevels[0]].Quantile(0.99)
	hi := r.AugmentCDF[r.AugmentLevels[len(r.AugmentLevels)-1]].Quantile(0.99)
	if !(hi >= lo) {
		t.Fatalf("augmentation decreased CM budget: %v -> %v", lo, hi)
	}
	if len(r.Tables()) != 4 {
		t.Fatal("fig6 must have 4 panels")
	}
}

func TestFig7ShapesHold(t *testing.T) {
	r, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Bias measurement costs budget: CM-with-bias > CM-without.
	if !(r.AvgBudget[Fig7CMBias] > r.AvgBudget[Fig7CM]) {
		t.Fatalf("bias measurement did not cost budget: %v vs %v",
			r.AvgBudget[Fig7CMBias], r.AvgBudget[Fig7CM])
	}
	// Both CM variants stay below ARA.
	if !(r.AvgBudget[Fig7CM] < r.AvgBudget[Fig7ARA]) {
		t.Fatalf("CM avg %v !< ARA avg %v", r.AvgBudget[Fig7CM], r.AvgBudget[Fig7ARA])
	}
	// Cutoff study: acceptance fraction decreases as the cutoff tightens
	// (cutoffs are ordered Inf, 0.02, 0.05, 0.1, 0.2 — Inf accepts all).
	if r.AcceptFraction[0] != r.ExecutedFraction[Fig7CMBias] {
		t.Fatalf("infinite cutoff accepted %v of queries", r.AcceptFraction[0])
	}
	for i := 2; i < len(r.Cutoffs); i++ {
		if r.AcceptFraction[i] < r.AcceptFraction[i-1]-1e-12 {
			t.Fatalf("acceptance not monotone in cutoff: %v", r.AcceptFraction)
		}
	}
	if len(r.Tables()) != 3 {
		t.Fatal("fig7 must have 3 panels")
	}
}

func TestAppendixBLatencyGrows(t *testing.T) {
	r, err := AppendixB(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NsPerReport) != len(r.Impressions) {
		t.Fatal("series length mismatch")
	}
	for _, ns := range r.NsPerReport {
		if ns <= 0 {
			t.Fatalf("non-positive latency %v", ns)
		}
	}
	// What grows with the impression count is the work a report scans: the
	// device's relevant events over the window, one per impression. Wall-clock
	// order between two sweep points is left to the table, not asserted.
	for _, n := range r.Impressions {
		dev, req := appendixBDevice(n)
		_, diag, err := dev.GenerateReport(req)
		if err != nil {
			t.Fatal(err)
		}
		relevant := 0
		for _, k := range diag.RelevantPerEpoch {
			relevant += k
		}
		if relevant != n {
			t.Fatalf("%d-impression device: report scanned %d relevant events", n, relevant)
		}
	}
	if len(r.Tables()) != 1 {
		t.Fatal("appendix B must have 1 table")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID: "x", Title: "t",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tab.Render()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "333") {
		t.Fatalf("render = %q", out)
	}
}

func TestFormatHelpers(t *testing.T) {
	if f(0) != "0" {
		t.Fatal("f(0)")
	}
	if f(123.456) != "123.5" {
		t.Fatalf("f(123.456) = %s", f(123.456))
	}
	if f(0.5) != "0.5" {
		t.Fatalf("f(0.5) = %s", f(0.5))
	}
	if !strings.Contains(f(0.0001), "e") {
		t.Fatalf("f(0.0001) = %s", f(0.0001))
	}
	if pct(0.5) != "50.0%" {
		t.Fatalf("pct = %s", pct(0.5))
	}
}

func TestAblationLadderMonotone(t *testing.T) {
	r, err := Ablation(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Policies) != 4 {
		t.Fatalf("policies = %v", r.Policies)
	}
	// The ladder is ordered by increasing savings: each optimization
	// subset consumes no more than the previous one (ARA-like first,
	// full Cookie Monster last).
	for i := 1; i < len(r.AvgBudget); i++ {
		if r.AvgBudget[i] > r.AvgBudget[i-1]*1.001+1e-12 {
			t.Fatalf("ladder not monotone at %s: %v", r.Policies[i], r.AvgBudget)
		}
	}
	// Full Cookie Monster strictly beats no-optimizations.
	if !(r.AvgBudget[len(r.AvgBudget)-1] < r.AvgBudget[0]) {
		t.Fatalf("full CM did not save budget: %v", r.AvgBudget)
	}
	if len(r.Tables()) != 1 {
		t.Fatal("ablation must have 1 table")
	}
}

func TestHeadlineRatioAboveOne(t *testing.T) {
	r, err := Headline(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AccuracyRatio) != len(r.Pressure) {
		t.Fatal("series length mismatch")
	}
	for i, ratio := range r.AccuracyRatio {
		if ratio < 1-1e-9 {
			t.Fatalf("pressure %d: ARA more accurate than CM (ratio %v)", r.Pressure[i], ratio)
		}
	}
	// Pressure increases the gap (ARA degrades first).
	if !(r.AccuracyRatio[len(r.AccuracyRatio)-1] > r.AccuracyRatio[0]) {
		t.Fatalf("ratio not increasing with pressure: %v", r.AccuracyRatio)
	}
	if len(r.Tables()) != 1 {
		t.Fatal("headline must have 1 table")
	}
}

func TestScenariosHarness(t *testing.T) {
	res, err := Scenarios(Options{Quick: true}, "late-events", "")
	if err != nil {
		t.Fatal(err)
	}
	// Single-scenario selection keeps the clean baseline for the ratio.
	if len(res.Reports) != 2 {
		t.Fatalf("got %d reports, want clean + late-events", len(res.Reports))
	}
	late := res.Reports[1]
	if late.Name != "late-events" || late.EventsDropped == 0 {
		t.Fatalf("late-events report malformed: %+v", late)
	}
	if !late.EquivalentToBatch || !late.CrashResumeIdentical {
		t.Fatal("robustness verdicts not set")
	}
	tables := res.Tables()
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("unexpected tables: %+v", tables)
	}
	if _, err := Scenarios(Options{Quick: true}, "no-such", ""); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
