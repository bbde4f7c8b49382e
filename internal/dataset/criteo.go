package dataset

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/stats"
)

// CriteoConfig parameterizes the Criteo-like multi-advertiser dataset
// (§6.4). The real Criteo log spans 90 days, 292 advertisers with heavily
// skewed sizes (0–478k conversions each), 12M impressions and 1.3M
// conversions over 10M users — and is *heavily subsampled*, missing many
// impressions, which favours Cookie Monster's zero-loss optimization. The
// generator reproduces the size skew (Zipf), the impression sparsity
// (ImpressionsPerConversion < 1 models the subsampling) and the Criteo++
// augmentation knob that back-fills synthetic impressions.
type CriteoConfig struct {
	// Seed makes the dataset reproducible.
	Seed uint64
	// Advertisers is the number of advertisers (292 in the paper).
	Advertisers int
	// Users is the shared device population.
	Users int
	// TotalConversions is the target conversion count across all
	// advertisers (1.3M in the paper).
	TotalConversions int
	// ZipfExponent controls advertiser size skew.
	ZipfExponent float64
	// DurationDays is the trace length (90 in the paper).
	DurationDays int
	// MinBatch is the minimum reports per query (350 in the paper);
	// advertisers with fewer conversions are not queryable.
	MinBatch int
	// ImpressionsPerConversion is the population-median expected number
	// of *organic* relevant impressions per conversion, placed within the
	// attribution window (< 1 models the subsampled log). Each advertiser
	// gets its own density, log-normally spread around this median —
	// real advertisers differ hugely in match rate, which is what makes
	// some advertisers' calibrated ε exceed the per-epoch capacity and
	// drives the error tail of Fig. 6b.
	ImpressionsPerConversion float64
	// DensitySpread is the log-normal σ of the per-advertiser impression
	// density factor (0 = homogeneous advertisers).
	DensitySpread float64
	// AugmentImpressions adds this many synthetic relevant impressions
	// per conversion, uniformly spread over the window — the Criteo++
	// knob of Fig. 6d (0, 1, 4 or 9 extra impressions).
	AugmentImpressions int
	// MaxValue caps conversion values (uniform 1..MaxValue).
	MaxValue int
	// WindowDays is the attribution window used for impression placement
	// and c̃ estimation.
	WindowDays int
}

// DefaultCriteoConfig returns the scaled-down default used by the Fig. 6
// experiments.
func DefaultCriteoConfig() CriteoConfig {
	return CriteoConfig{
		Seed:                     3,
		Advertisers:              100,
		Users:                    30000,
		TotalConversions:         50000,
		ZipfExponent:             1.1,
		DurationDays:             90,
		MinBatch:                 350,
		ImpressionsPerConversion: 0.4,
		DensitySpread:            1.0,
		AugmentImpressions:       0,
		MaxValue:                 10,
		WindowDays:               30,
	}
}

func (c CriteoConfig) validate() error {
	switch {
	case c.Advertisers <= 0 || c.Users <= 0 || c.TotalConversions <= 0:
		return fmt.Errorf("dataset: criteo requires positive advertisers/users/conversions")
	case c.ZipfExponent <= 0:
		return fmt.Errorf("dataset: non-positive zipf exponent")
	case c.DurationDays <= 0 || c.WindowDays <= 0:
		return fmt.Errorf("dataset: criteo requires positive duration and window")
	case c.MinBatch <= 0:
		return fmt.Errorf("dataset: non-positive min batch")
	case c.ImpressionsPerConversion < 0 || c.AugmentImpressions < 0 || c.DensitySpread < 0:
		return fmt.Errorf("dataset: negative impression knobs")
	case c.MaxValue <= 0:
		return fmt.Errorf("dataset: non-positive max value")
	}
	return nil
}

// Criteo generates the Criteo-like dataset. Each conversion is assigned to
// an advertiser by a Zipf draw (heavy-tailed sizes), to a uniform user and
// day, and seeds Poisson(ImpressionsPerConversion) + AugmentImpressions
// relevant impressions at uniform offsets inside the attribution window —
// matching the augmentation procedure of §6.4 ("impressions are uniformly
// distributed across the attribution window").
func Criteo(cfg CriteoConfig) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stats.Stream(cfg.Seed, "criteo")
	zipf := stats.NewZipf(cfg.Advertisers, cfg.ZipfExponent)

	ds := &Dataset{
		Name:              "criteo",
		PopulationDevices: cfg.Users,
		DurationDays:      cfg.DurationDays,
	}
	var nextID events.EventID
	newID := func() events.EventID { nextID++; return nextID }

	// Names are interned once, before any event, and indexed per event.
	publisher := events.Intern("criteo-publisher.example")
	sites := make([]events.Site, cfg.Advertisers+1)
	for a := 1; a <= cfg.Advertisers; a++ {
		sites[a] = events.Intern(fmt.Sprintf("advertiser-%03d.example", a))
	}
	// Each advertiser sells a handful of products keyed like the paper's
	// "product-category-3" attribute.
	const productsPerAdvertiser = 3
	products := productKeys(productsPerAdvertiser)

	// Per-advertiser impression density: log-normal spread around the
	// configured median.
	density := make([]float64, cfg.Advertisers+1)
	for a := 1; a <= cfg.Advertisers; a++ {
		density[a] = cfg.ImpressionsPerConversion * rng.LogNormal(0, cfg.DensitySpread)
	}

	perAdvertiser := make([]int, cfg.Advertisers+1)
	attributed := make([]int, cfg.Advertisers+1)
	for i := 0; i < cfg.TotalConversions; i++ {
		a := zipf.Sample(rng)
		perAdvertiser[a]++
		dev := events.DeviceID(rng.Intn(cfg.Users) + 1)
		day := rng.Intn(cfg.DurationDays)
		product := products[rng.Intn(productsPerAdvertiser)]
		ds.Events = append(ds.Events, events.Event{
			ID:         newID(),
			Kind:       events.KindConversion,
			Device:     dev,
			Day:        day,
			Advertiser: sites[a],
			Product:    product,
			Value:      float64(1 + rng.Intn(cfg.MaxValue)),
		})
		// Organic (subsampled) + augmented relevant impressions. All
		// are placed inside the window, so the conversion is
		// attributable exactly when n > 0.
		n := rng.Poisson(density[a]) + cfg.AugmentImpressions
		if n > 0 {
			attributed[a]++
		}
		for j := 0; j < n; j++ {
			offset := rng.Intn(cfg.WindowDays)
			impDay := day - offset
			if impDay < 0 {
				impDay = 0
			}
			ds.Events = append(ds.Events, events.Event{
				ID:         newID(),
				Kind:       events.KindImpression,
				Device:     dev,
				Day:        impDay,
				Publisher:  publisher,
				Advertiser: sites[a],
				Campaign:   product,
			})
		}
	}

	avgValue := float64(1+cfg.MaxValue) / 2
	for a := 1; a <= cfg.Advertisers; a++ {
		if perAdvertiser[a] < cfg.MinBatch {
			continue // not queryable: below the 350-report minimum
		}
		// Per-advertiser c̃ from the advertiser's own match rate — the
		// "rough estimate" a real querier derives from its history.
		rate := float64(attributed[a]) / float64(perAdvertiser[a])
		cTilde := rate * avgValue
		if cTilde <= 0 {
			cTilde = avgValue / float64(cfg.MinBatch)
		}
		ds.Advertisers = append(ds.Advertisers, Advertiser{
			Site:           sites[a],
			Products:       products,
			MaxValue:       float64(cfg.MaxValue),
			AvgReportValue: cTilde,
			BatchSize:      cfg.MinBatch,
		})
	}
	return ds, nil
}
