package dataset

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/stats"
)

// PATCGConfig parameterizes the PATCG-like synthetic dataset (§6.3). The
// W3C PATCG dataset has 24M conversions from a single advertiser over 30
// days, 16M users averaging 3.2 impressions, 1.5 conversions per converting
// user, and 10 products with uniform attribute values; this generator keeps
// those per-user rates and the single-advertiser, 10-product structure at a
// laptop-scale population.
type PATCGConfig struct {
	// Seed makes the dataset reproducible.
	Seed uint64
	// Users is the device population (16M in the paper).
	Users int
	// Products is the number of products (10).
	Products int
	// QueriesPerProduct is how many times each product is queried
	// (8 in the paper, for 80 queries).
	QueriesPerProduct int
	// DurationDays is the trace length (the PATCG dataset spans 30
	// days, which concentrates attribution windows and drives the
	// filter contention the paper measures).
	DurationDays int
	// MeanImpressions is the mean impressions per user over the trace
	// (3.2 in the paper).
	MeanImpressions float64
	// MeanExtraConversions: a converting user has 1 + Poisson(this) many
	// conversions (0.5 reproduces the paper's 1.5 average).
	MeanExtraConversions float64
	// MaxValue caps conversion values (uniform 1..MaxValue).
	MaxValue int
	// WindowDays is the attribution window used to estimate c̃.
	WindowDays int
}

// DefaultPATCGConfig returns the scaled-down default used by the Fig. 5
// experiments.
func DefaultPATCGConfig() PATCGConfig {
	return PATCGConfig{
		Seed:                 2,
		Users:                40000,
		Products:             10,
		QueriesPerProduct:    8,
		DurationDays:         30,
		MeanImpressions:      3.2,
		MeanExtraConversions: 0.5,
		MaxValue:             10,
		WindowDays:           30,
	}
}

func (c PATCGConfig) validate() error {
	switch {
	case c.Users <= 0 || c.Products <= 0 || c.QueriesPerProduct <= 0:
		return fmt.Errorf("dataset: patcg requires positive users/products/queries")
	case c.DurationDays <= 0 || c.WindowDays <= 0:
		return fmt.Errorf("dataset: patcg requires positive duration and window")
	case c.MeanImpressions < 0 || c.MeanExtraConversions < 0:
		return fmt.Errorf("dataset: patcg requires non-negative means")
	case c.MaxValue <= 0:
		return fmt.Errorf("dataset: non-positive max value")
	}
	return nil
}

// PATCG generates the PATCG-like dataset. Every user converts 1 + Poisson(µ)
// times for uniformly chosen products on uniformly chosen days, and sees
// Poisson(MeanImpressions) impressions across the trace whose campaigns are
// uniform over the product space. The advertiser's batch size is derived so
// each product is queried exactly QueriesPerProduct times, mirroring the
// paper's 80-query schedule.
func PATCG(cfg PATCGConfig) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stats.Stream(cfg.Seed, "patcg")
	ds := &Dataset{
		Name:              "patcg",
		PopulationDevices: cfg.Users,
		DurationDays:      cfg.DurationDays,
	}
	var nextID events.EventID
	newID := func() events.EventID { nextID++; return nextID }

	site, publisher := events.Intern("advertiser.example"), events.Intern("publisher.example")
	products := productKeys(cfg.Products)
	perProduct := make([]int, cfg.Products)
	for u := 0; u < cfg.Users; u++ {
		dev := events.DeviceID(u + 1)
		nConv := 1 + rng.Poisson(cfg.MeanExtraConversions)
		for c := 0; c < nConv; c++ {
			p := rng.Intn(cfg.Products)
			perProduct[p]++
			ds.Events = append(ds.Events, events.Event{
				ID:         newID(),
				Kind:       events.KindConversion,
				Device:     dev,
				Day:        rng.Intn(cfg.DurationDays),
				Advertiser: site,
				Product:    products[p],
				Value:      float64(1 + rng.Intn(cfg.MaxValue)),
			})
		}
		for n := rng.Poisson(cfg.MeanImpressions); n > 0; n-- {
			ds.Events = append(ds.Events, events.Event{
				ID:         newID(),
				Kind:       events.KindImpression,
				Device:     dev,
				Day:        rng.Intn(cfg.DurationDays),
				Publisher:  publisher,
				Advertiser: site,
				Campaign:   products[rng.Intn(cfg.Products)],
			})
		}
	}

	// Batch size: smallest per-product conversion count divided by the
	// query count, so every product completes its full query schedule.
	minCount := perProduct[0]
	for _, c := range perProduct[1:] {
		if c < minCount {
			minCount = c
		}
	}
	batch := minCount / cfg.QueriesPerProduct
	if batch < 1 {
		batch = 1
	}

	rate := attributionRate(ds.Events, cfg.WindowDays)
	avgValue := float64(1+cfg.MaxValue) / 2
	cTilde := rate * avgValue
	if cTilde <= 0 {
		cTilde = avgValue / float64(batch)
	}
	ds.Advertisers = []Advertiser{{
		Site:           site,
		Products:       products,
		MaxValue:       float64(cfg.MaxValue),
		AvgReportValue: cTilde,
		BatchSize:      batch,
	}}
	return ds, nil
}
