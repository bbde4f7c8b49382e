// Adplatform: the Appendix A ad-tech perspective. A first-party platform
// (the Meta role) trains a conversion-prediction logistic regression from
// attribution reports: features are public on-platform behaviour, labels are
// private cross-site conversions, and every gradient flows through the same
// on-device budgeting engine — devices without a relevant conversion pay
// zero budget (their gradient is a function of public data only).
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/mlattr"
	"repro/internal/stats"
)

func main() {
	platform := events.Intern("platform.example")
	advertiser := events.Intern("shoes.example")

	// Synthetic population: users with two public interest features;
	// users interested in running (feature 0 high) tend to convert.
	rng := stats.NewRNG(2024)
	db := events.NewDatabase()
	var examples []mlattr.Example
	converts := 0
	const n = 600
	for i := 0; i < n; i++ {
		dev := events.DeviceID(i + 1)
		running := rng.Float64()*2 - 1 // interest score in [-1, 1]
		fashion := rng.Float64()*2 - 1
		// Ground truth: running interest drives conversion.
		if rng.Bool(1 / (1 + math.Exp(-3*running))) {
			converts++
			db.Record(0, events.Event{
				ID: events.EventID(i + 1), Kind: events.KindConversion,
				Device: dev, Day: 2, Advertiser: advertiser, Value: 1,
			})
		}
		examples = append(examples, mlattr.Example{
			Device:     core.NewDevice(dev, db, 20, core.CookieMonsterPolicy{}),
			Features:   []float64{running, fashion, 1},
			FirstEpoch: 0, LastEpoch: 0,
		})
	}

	trainer, err := mlattr.NewTrainer(mlattr.TrainerConfig{
		Querier:      platform,
		Dim:          3,
		FeatureCap:   3,
		Epsilon:      2,
		LearningRate: 1.5,
		Advertisers:  []events.Site{advertiser},
	})
	if err != nil {
		log.Fatal(err)
	}
	service := aggregation.NewService(stats.NewRNG(7))

	fmt.Printf("training on %d devices (%d converters), ε=2 per step\n\n", n, converts)
	for step := 1; step <= 25; step++ {
		denied, err := trainer.Step(service, examples)
		if err != nil {
			log.Fatal(err)
		}
		if step%5 == 0 {
			w := trainer.Weights()
			fmt.Printf("step %2d: weights = [%+.3f %+.3f %+.3f], denied reports = %d\n",
				step, w[0], w[1], w[2], denied)
		}
	}

	w := trainer.Weights()
	fmt.Printf("\nlearned model: running-interest weight %+.3f (ground truth +), fashion %+.3f (ground truth 0)\n", w[0], w[1])
	fmt.Println("non-converting devices paid zero budget for every gradient —")
	fmt.Println("their reports depend only on public features (Thm. 4 case 1).")
}
