package scenario

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/figures"
	"repro/internal/stream"
)

// newHarness builds the default harness; under -short the crash matrix
// samples three representative fault points and two parallelism levels
// instead of the full grid.
func newHarness(t *testing.T) Harness {
	t.Helper()
	h, err := DefaultHarness()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		h.Parallelisms = []int{1, 4}
		h.FaultPoints = []stream.FaultPoint{
			stream.PointEventIngested,
			stream.PointQueryExecuted,
			stream.PointSnapshotCommitted,
		}
	}
	return h
}

// goldenDigest reads the committed digest for the named workload.
func goldenDigest(t *testing.T, name string) string {
	t.Helper()
	path, err := figures.GoldenDigestsPath()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var digests map[string]string
	if err := json.Unmarshal(raw, &digests); err != nil {
		t.Fatal(err)
	}
	d, ok := digests[name]
	if !ok {
		t.Fatalf("no golden digest for %q", name)
	}
	return d
}

// TestScenarioCatalog drives the full catalog through the robustness
// harness. Harness.Run itself enforces the hard properties — batch-vs-stream
// bit-equivalence at every parallelism, admission counters matching the pure
// rule, crash→resume bit-identity at every fault point — so this test's own
// assertions are about the catalog: the clean scenario must still produce
// the golden digest (hostile-traffic support cannot move clean results), and
// each perturbation must actually bite (drops where late traffic exists,
// budget drain where the adversary runs).
//
// Set SCENARIO_REPORT=1 to also write REPORT_scenarios.json at the module
// root — the artifact CI uploads.
func TestScenarioCatalog(t *testing.T) {
	h := newHarness(t)

	reports, err := h.RunCatalog(Catalog())
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*Report, len(reports))
	for _, rep := range reports {
		byName[rep.Name] = rep
		if !rep.EquivalentToBatch || !rep.CrashResumeIdentical {
			t.Errorf("%s: verdicts %v/%v", rep.Name, rep.EquivalentToBatch, rep.CrashResumeIdentical)
		}
		if want := len(h.faultPoints()); rep.CrashPointsTested != want {
			t.Errorf("%s: tested %d crash points, want %d", rep.Name, rep.CrashPointsTested, want)
		}
		if rep.EventsAdmitted+rep.EventsDropped != rep.EventsDelivered {
			t.Errorf("%s: admitted %d + dropped %d != delivered %d",
				rep.Name, rep.EventsAdmitted, rep.EventsDropped, rep.EventsDelivered)
		}
	}

	clean := byName["clean"]
	if clean == nil {
		t.Fatal("catalog has no clean scenario")
	}
	if want := goldenDigest(t, "cookie-monster"); clean.Digest != want {
		t.Errorf("clean scenario digest %s diverged from golden %s", clean.Digest, want)
	}
	if clean.AccuracyVsClean != 1 {
		t.Errorf("clean accuracy ratio = %v, want 1", clean.AccuracyVsClean)
	}

	// Which scenarios must drop traffic, and which must not.
	wantDrops := map[string]bool{
		"clean": false, "flash-crowd": false, "device-churn": false,
		"adversarial-querier": false,
		"late-events":         true, "clock-skew": true, "clock-skew-forward": true,
	}
	for name, drops := range wantDrops {
		rep := byName[name]
		if rep == nil {
			t.Errorf("catalog lost scenario %s", name)
			continue
		}
		if drops && rep.EventsDropped == 0 {
			t.Errorf("%s: expected drops, got none", name)
		}
		if !drops && rep.EventsDropped != 0 {
			t.Errorf("%s: unexpected drops: %d", name, rep.EventsDropped)
		}
	}

	// The adversary must drain real budget into its own lane — and only its
	// own lane: the honest querier's total is bit-identical to clean.
	adv := byName["adversarial-querier"]
	if adv == nil {
		t.Fatal("catalog lost the adversarial-querier scenario")
	}
	attacker := "attacker.example"
	if adv.ConsumedEpsilon[attacker] <= 0 {
		t.Error("adversary consumed nothing; the drain has no teeth")
	}
	if adv.LedgerDenials <= clean.LedgerDenials {
		t.Errorf("adversary denials %d not above clean %d", adv.LedgerDenials, clean.LedgerDenials)
	}
	for q, eps := range clean.ConsumedEpsilon {
		if adv.ConsumedEpsilon[q] != eps {
			t.Errorf("honest querier %s consumed %v under attack, %v clean", q, adv.ConsumedEpsilon[q], eps)
		}
	}

	// Accuracy ratios are finite and populated for every executed scenario.
	for _, rep := range reports {
		if rep.QueriesExecuted > 0 && (rep.AccuracyVsClean <= 0 || math.IsNaN(rep.AccuracyVsClean)) {
			t.Errorf("%s: accuracy ratio %v", rep.Name, rep.AccuracyVsClean)
		}
	}

	if os.Getenv("SCENARIO_REPORT") != "" {
		path := filepath.Join(moduleRoot(t), "REPORT_scenarios.json")
		if err := WriteBench(path, reports); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
}

// moduleRoot walks up from the package directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		dir = filepath.Dir(dir)
	}
	t.Fatal("go.mod not found above the working directory")
	return ""
}

// TestScenarioReproducible pins the catalog's determinism contract: two
// sources built from the same (spec, base) pair deliver identical event
// sequences, and the admission oracle over them agrees event for event.
func TestScenarioReproducible(t *testing.T) {
	h := newHarness(t)
	for _, sp := range Catalog() {
		a, b := sp.Source(h.Dataset), sp.Source(h.Dataset)
		n := 0
		for {
			ea, oka := a.Next()
			eb, okb := b.Next()
			if oka != okb {
				t.Fatalf("%s: sources diverged in length at %d", sp.Name, n)
			}
			if !oka {
				break
			}
			if ea != eb {
				t.Fatalf("%s: event %d diverged:\n%+v\n%+v", sp.Name, n, ea, eb)
			}
			n++
		}
		if n == 0 {
			t.Fatalf("%s: empty source", sp.Name)
		}
	}
}

// TestScenarioMetaConsistent checks each perturbation's metadata story: the
// delivered population covers every device ID seen, and injected-adversary
// specs surface the attacker as a querier.
func TestScenarioMetaConsistent(t *testing.T) {
	h := newHarness(t)
	for _, sp := range Catalog() {
		src := sp.Source(h.Dataset)
		m := src.Meta()
		maxDev := 0
		for {
			ev, ok := src.Next()
			if !ok {
				break
			}
			if int(ev.Device) > maxDev {
				maxDev = int(ev.Device)
			}
			if ev.Day < 0 || ev.Day >= m.DurationDays {
				t.Errorf("%s: event day %d outside trace [0, %d)", sp.Name, ev.Day, m.DurationDays)
			}
		}
		if maxDev > m.PopulationDevices {
			t.Errorf("%s: device %d beyond declared population %d", sp.Name, maxDev, m.PopulationDevices)
		}
		if sp.Adversary != nil {
			found := false
			for _, adv := range m.Advertisers {
				if adv.Site == sp.Adversary.Site {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: attacker absent from metadata queriers", sp.Name)
			}
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	h := newHarness(t)
	bad := []Spec{
		{},
		{Name: "x", Burst: &BurstSpec{Day: -1, Events: 10}},
		{Name: "x", Burst: &BurstSpec{Day: 0, Events: 0}},
		{Name: "x", Burst: &BurstSpec{Day: 0, Events: 1, Advertiser: 99}},
		{Name: "x", Late: &LateSpec{Fraction: 1.5, DelayDays: 1}},
		{Name: "x", Late: &LateSpec{Fraction: 0.5, DelayDays: 0}},
		{Name: "x", Churn: &ChurnSpec{Fraction: -0.1}},
		{Name: "x", Skew: &SkewSpec{Fraction: 0.5, MaxSkewDays: 0}},
		{Name: "x", Adversary: &AdversarySpec{}},
	}
	for i, sp := range bad {
		if err := sp.Validate(h.Dataset); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, sp)
		}
	}
	for _, sp := range Catalog() {
		if err := sp.Validate(h.Dataset); err != nil {
			t.Errorf("catalog spec %s rejected: %v", sp.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("flash-crowd"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
