package mlattr

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/stats"
)

var meta = events.Intern("platform.example")
var shop = events.Intern("shop.example")

func TestSigmoidDot(t *testing.T) {
	if sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) != 0.5")
	}
	if got := dot([]float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Fatalf("dot = %v", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dot mismatch did not panic")
		}
	}()
	dot([]float64{1}, []float64{1, 2})
}

func TestGradientFunctionLabels(t *testing.T) {
	g := GradientFunction{Weights: []float64{0, 0}, Features: []float64{1, 2}}
	// Label 0 (no relevant conversions): gradient = (0.5−0)·x.
	h0 := g.Attribute(nil)
	if math.Abs(h0[0]-0.5) > 1e-12 || math.Abs(h0[1]-1.0) > 1e-12 {
		t.Fatalf("label-0 gradient = %v", h0)
	}
	// Label 1: gradient = (0.5−1)·x.
	conv := events.Event{Kind: events.KindConversion, Advertiser: shop}
	h1 := g.Attribute([][]events.Event{{conv}})
	if math.Abs(h1[0]+0.5) > 1e-12 || math.Abs(h1[1]+1.0) > 1e-12 {
		t.Fatalf("label-1 gradient = %v", h1)
	}
}

func TestGradientZeroLossForUnlabeled(t *testing.T) {
	// The key IDP carry-over: an empty epoch leaves the gradient at its
	// A(∅) value, so its individual sensitivity is zero.
	g := GradientFunction{Weights: []float64{0.3}, Features: []float64{2}}
	empty := g.Attribute([][]events.Event{nil, nil})
	background := g.Attribute(nil)
	if empty[0] != background[0] {
		t.Fatal("empty epochs changed the gradient")
	}
}

func TestGradientSensitivityBound(t *testing.T) {
	// Flipping the label moves the gradient by exactly ‖x‖₁.
	f := func(raw []float64) bool {
		x := make([]float64, 0, len(raw))
		norm := 0.0
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			v = math.Mod(v, 100)
			x = append(x, v)
			norm += math.Abs(v)
		}
		if len(x) == 0 {
			return true
		}
		w := make([]float64, len(x))
		g := GradientFunction{Weights: w, Features: x}
		h0 := g.Attribute(nil)
		h1 := g.Attribute([][]events.Event{{{Kind: events.KindConversion}}})
		diff := 0.0
		for i := range h0 {
			diff += math.Abs(h0[i] - h1[i])
		}
		cap := norm + 1
		return diff <= GradientSensitivity(x, cap)+1e-9 &&
			GradientSensitivity(x, cap) <= cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConversionLabelSelector(t *testing.T) {
	sel := NewConversionLabelSelector(shop)
	if !sel.Relevant(events.Event{Kind: events.KindConversion, Advertiser: shop}) {
		t.Fatal("relevant conversion rejected")
	}
	if sel.Relevant(events.Event{Kind: events.KindConversion, Advertiser: events.Intern("other.example")}) {
		t.Fatal("other advertiser accepted")
	}
	// Impressions are never labels — this is what keeps F_A ∩ P = ∅ for
	// the publisher-side querier.
	if sel.Relevant(events.Event{Kind: events.KindImpression, Advertiser: shop}) {
		t.Fatal("impression accepted as label")
	}
}

func TestTrainerValidation(t *testing.T) {
	base := TrainerConfig{
		Querier: meta, Dim: 2, FeatureCap: 4, Epsilon: 1,
		LearningRate: 0.5, Advertisers: []events.Site{shop},
	}
	if _, err := NewTrainer(base); err != nil {
		t.Fatal(err)
	}
	bad := []func(*TrainerConfig){
		func(c *TrainerConfig) { c.Querier = events.Site{} },
		func(c *TrainerConfig) { c.Dim = 0 },
		func(c *TrainerConfig) { c.FeatureCap = 0 },
		func(c *TrainerConfig) { c.Epsilon = 0 },
		func(c *TrainerConfig) { c.LearningRate = 0 },
		func(c *TrainerConfig) { c.Advertisers = nil },
	}
	for i, mut := range bad {
		cfg := base
		mut(&cfg)
		if _, err := NewTrainer(cfg); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

// trainingFleet builds devices with a linearly separable labeling: devices
// with feature[0] > 0 convert, others don't.
func trainingFleet(t *testing.T, n int, epsG float64) ([]Example, *events.Database) {
	t.Helper()
	db := events.NewDatabase()
	rng := stats.NewRNG(99)
	examples := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		dev := events.DeviceID(i + 1)
		x0 := rng.Float64()*2 - 1
		if x0 > 0 {
			db.Record(0, events.Event{
				ID: events.EventID(i + 1), Kind: events.KindConversion,
				Device: dev, Day: 3, Advertiser: shop, Value: 1,
			})
		}
		examples = append(examples, Example{
			Device:     core.NewDevice(dev, db, epsG, core.CookieMonsterPolicy{}),
			Features:   []float64{x0, 1}, // feature + bias term
			FirstEpoch: 0, LastEpoch: 0,
		})
	}
	return examples, db
}

func TestTrainingLearnsSeparableData(t *testing.T) {
	examples, _ := trainingFleet(t, 400, 100)
	tr, err := NewTrainer(TrainerConfig{
		Querier: meta, Dim: 2, FeatureCap: 2, Epsilon: 5,
		LearningRate: 2, Advertisers: []events.Site{shop},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := aggregation.NewService(stats.NewRNG(5))
	for step := 0; step < 30; step++ {
		if _, err := tr.Step(svc, examples); err != nil {
			t.Fatal(err)
		}
	}
	// The learned separator must weight feature[0] positively and
	// classify the bulk of examples correctly.
	w := tr.Weights()
	if w[0] <= 0 {
		t.Fatalf("weights = %v, want positive slope", w)
	}
	correct := 0
	for _, ex := range examples {
		p := tr.Predict(ex.Features)
		converted := ex.Features[0] > 0
		if (p > 0.5) == converted {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(examples)); acc < 0.8 {
		t.Fatalf("accuracy %v < 0.8", acc)
	}
}

func TestTrainingConsumesBudgetOnlyFromConverters(t *testing.T) {
	// Cookie Monster's zero-loss case: devices without a relevant
	// conversion pay nothing for the gradient query.
	examples, _ := trainingFleet(t, 50, 100)
	tr, _ := NewTrainer(TrainerConfig{
		Querier: meta, Dim: 2, FeatureCap: 2, Epsilon: 1,
		LearningRate: 1, Advertisers: []events.Site{shop},
	})
	svc := aggregation.NewService(stats.NewRNG(6))
	if _, err := tr.Step(svc, examples); err != nil {
		t.Fatal(err)
	}
	for _, ex := range examples {
		consumed := ex.Device.Consumed(meta, 0)
		converted := ex.Features[0] > 0
		if converted && consumed == 0 {
			t.Fatal("converting device paid nothing")
		}
		if !converted && consumed != 0 {
			t.Fatalf("non-converting device paid %v", consumed)
		}
	}
}

func TestStepErrors(t *testing.T) {
	tr, _ := NewTrainer(TrainerConfig{
		Querier: meta, Dim: 2, FeatureCap: 2, Epsilon: 1,
		LearningRate: 1, Advertisers: []events.Site{shop},
	})
	svc := aggregation.NewService(stats.NewRNG(7))
	if _, err := tr.Step(svc, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	examples, _ := trainingFleet(t, 1, 100)
	examples[0].Features = []float64{1} // wrong dimension
	if _, err := tr.Step(svc, examples); err == nil {
		t.Fatal("wrong dimension accepted")
	}
}

func TestTrainingUnderBudgetExhaustion(t *testing.T) {
	// With a tiny budget, converting devices exhaust and their gradients
	// silently fall back to the label-0 value — the bias mechanism of
	// §3.4 applied to model training. Training must not fail.
	examples, _ := trainingFleet(t, 100, 0.001)
	tr, _ := NewTrainer(TrainerConfig{
		Querier: meta, Dim: 2, FeatureCap: 2, Epsilon: 1,
		LearningRate: 1, Advertisers: []events.Site{shop},
	})
	svc := aggregation.NewService(stats.NewRNG(8))
	sawDenied := false
	for step := 0; step < 3; step++ {
		denied, err := tr.Step(svc, examples)
		if err != nil {
			t.Fatal(err)
		}
		if denied > 0 {
			sawDenied = true
		}
	}
	if !sawDenied {
		t.Fatal("expected denials under tiny budget")
	}
}
