package mlattr

import (
	"errors"
	"fmt"

	"repro/internal/aggregation"
	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/events"
)

// Example is one training example: a device whose public features the
// platform knows, and the epoch window in which a relevant conversion would
// label it positive.
type Example struct {
	Device                *core.Device
	Features              []float64
	FirstEpoch, LastEpoch events.Epoch
}

// TrainerConfig parameterizes DP-SGD-style training over attribution
// reports.
type TrainerConfig struct {
	// Querier is the ad-tech site (filters are per querier).
	Querier events.Site
	// Dim is the feature dimension.
	Dim int
	// FeatureCap is the L1 clip applied to every device's features — the
	// report global sensitivity of each gradient report.
	FeatureCap float64
	// Epsilon is the per-step privacy parameter enforced by the
	// aggregation service.
	Epsilon float64
	// LearningRate scales gradient steps.
	LearningRate float64
	// Advertisers whose conversions define the positive label.
	Advertisers []events.Site
}

func (c TrainerConfig) validate() error {
	switch {
	case c.Querier == events.Site{}:
		return errors.New("mlattr: missing querier")
	case c.Dim <= 0:
		return fmt.Errorf("mlattr: non-positive dimension %d", c.Dim)
	case c.FeatureCap <= 0:
		return errors.New("mlattr: non-positive feature cap")
	case c.Epsilon <= 0:
		return errors.New("mlattr: non-positive epsilon")
	case c.LearningRate <= 0:
		return errors.New("mlattr: non-positive learning rate")
	case len(c.Advertisers) == 0:
		return errors.New("mlattr: no advertisers")
	}
	return nil
}

// Trainer fits a logistic regression from DP-aggregated gradient reports.
type Trainer struct {
	cfg      TrainerConfig
	weights  []float64
	selector ConversionLabelSelector
}

// NewTrainer returns a trainer with zero-initialized weights.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Trainer{
		cfg:      cfg,
		weights:  make([]float64, cfg.Dim),
		selector: NewConversionLabelSelector(cfg.Advertisers...),
	}, nil
}

// Weights returns a copy of the current model iterate.
func (t *Trainer) Weights() []float64 {
	return append([]float64(nil), t.weights...)
}

// Step runs one training iteration: every example's device generates a
// gradient report under its own budget filters, the service aggregates them
// with Laplace noise scaled to the feature cap, and the model takes a
// gradient step on the noisy mean. It returns the number of reports whose
// windows were (partially) budget-denied, which silently bias gradients the
// same way they bias measurement queries (§3.4).
func (t *Trainer) Step(service *aggregation.Service, examples []Example) (denied int, err error) {
	if len(examples) == 0 {
		return 0, errors.New("mlattr: empty batch")
	}
	reports := make([]*core.Report, 0, len(examples))
	for _, ex := range examples {
		if len(ex.Features) != t.cfg.Dim {
			return 0, fmt.Errorf("mlattr: example dimension %d, want %d", len(ex.Features), t.cfg.Dim)
		}
		clipped := append([]float64(nil), ex.Features...)
		attribution.ClipL1(clipped, t.cfg.FeatureCap)
		req := &core.Request{
			Querier:    t.cfg.Querier.String(),
			FirstEpoch: ex.FirstEpoch,
			LastEpoch:  ex.LastEpoch,
			Selector:   t.selector,
			Function: GradientFunction{
				Weights:  t.weights,
				Features: clipped,
			},
			Epsilon:           t.cfg.Epsilon,
			ReportSensitivity: GradientSensitivity(clipped, t.cfg.FeatureCap),
			QuerySensitivity:  t.cfg.FeatureCap,
			PNorm:             1,
		}
		rep, diag, err := ex.Device.GenerateReport(req)
		if err != nil {
			return 0, err
		}
		if len(diag.DeniedEpochs) > 0 {
			denied++
		}
		reports = append(reports, rep)
	}
	out, err := service.Execute(reports)
	if err != nil {
		return denied, err
	}
	scale := t.cfg.LearningRate / float64(len(examples))
	for i := range t.weights {
		t.weights[i] -= scale * out.Aggregate[i]
	}
	return denied, nil
}
