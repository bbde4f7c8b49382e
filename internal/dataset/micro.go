package dataset

import (
	"fmt"
	"sort"

	"repro/internal/events"
	"repro/internal/stats"
)

// MicroConfig parameterizes the §6.2 microbenchmark. The two knobs are the
// paper's: Knob1 is the fraction of the device population that participates
// in each query (lower ⇒ a larger population sharing the same number of
// conversions ⇒ finer-grained on-device accounting pays off more), and Knob2
// is the number of impressions per user per day (lower ⇒ more epochs with no
// relevant impressions ⇒ Cookie Monster's zero-loss optimization fires more).
type MicroConfig struct {
	// Seed makes the dataset reproducible.
	Seed uint64
	// Products is the number of products (10 in the paper).
	Products int
	// BatchSize is B, conversions per query (2,000 in the paper; the
	// default here is scaled down with the population).
	BatchSize int
	// QueriesPerProduct is how many times each product is measured
	// (2 in the paper's default, 40 in the §6.5 bias workload).
	QueriesPerProduct int
	// DurationDays is the trace length (120 in the paper; 60 in §6.5).
	DurationDays int
	// Knob1 is the user participation rate per query in (0, 1].
	Knob1 float64
	// Knob2 is the expected impressions per user per day.
	Knob2 float64
	// MaxValue is the largest conversion value (values are uniform in
	// 1..MaxValue).
	MaxValue int
	// WindowDays is the attribution window used to estimate c̃.
	WindowDays int
}

// DefaultMicroConfig returns the scaled-down default: same knob semantics
// and batch structure as the paper, with B = 500 so the full knob sweep runs
// on a laptop.
func DefaultMicroConfig() MicroConfig {
	return MicroConfig{
		Seed:              1,
		Products:          10,
		BatchSize:         500,
		QueriesPerProduct: 2,
		DurationDays:      120,
		Knob1:             0.1,
		Knob2:             0.1,
		MaxValue:          10,
		WindowDays:        30,
	}
}

func (c MicroConfig) validate() error {
	switch {
	case c.Products <= 0 || c.BatchSize <= 0 || c.QueriesPerProduct <= 0:
		return fmt.Errorf("dataset: micro requires positive products/batch/queries")
	case c.DurationDays <= 0 || c.WindowDays <= 0:
		return fmt.Errorf("dataset: micro requires positive duration and window")
	case c.Knob1 <= 0 || c.Knob1 > 1:
		return fmt.Errorf("dataset: knob1 %v outside (0, 1]", c.Knob1)
	case c.Knob2 < 0:
		return fmt.Errorf("dataset: negative knob2 %v", c.Knob2)
	case c.MaxValue <= 0:
		return fmt.Errorf("dataset: non-positive max value %d", c.MaxValue)
	}
	return nil
}

// Micro generates the microbenchmark dataset. Query batches are laid out in
// time order (batch i's conversions occupy the i-th slice of the trace,
// cycling through products), and each batch's conversions go to BatchSize
// *distinct* devices sampled from a population of BatchSize/Knob1 devices —
// so with Knob1 = 1 every device participates in every query, and with
// Knob1 = 0.001 the same conversions spread over a 1000× larger population,
// exactly the paper's construction. Impressions are generated only for
// devices that ever convert; silent devices count toward PopulationDevices
// (they never generate reports, so their event lists are irrelevant — but
// off-device budgeting still charges them, which Fig. 4's averages expose).
func Micro(cfg MicroConfig) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stats.Stream(cfg.Seed, "micro")
	population := int(float64(cfg.BatchSize)/cfg.Knob1 + 0.5)
	if population < cfg.BatchSize {
		population = cfg.BatchSize
	}
	totalBatches := cfg.Products * cfg.QueriesPerProduct
	batchSpan := cfg.DurationDays / totalBatches
	if batchSpan == 0 {
		batchSpan = 1
	}

	ds := &Dataset{
		Name:              "micro",
		PopulationDevices: population,
		DurationDays:      cfg.DurationDays,
	}
	var nextID events.EventID
	newID := func() events.EventID { nextID++; return nextID }

	// Sample B distinct devices per batch with a partial Fisher–Yates
	// over a reusable index slice.
	pool := make([]int, population)
	for i := range pool {
		pool[i] = i
	}
	converted := make(map[events.DeviceID]bool)

	site, publisher := events.Intern("nike.example"), events.Intern("news.example")
	products := productKeys(cfg.Products)
	for batch := 0; batch < totalBatches; batch++ {
		product := products[batch%cfg.Products]
		dayLo := batch * batchSpan
		for i := 0; i < cfg.BatchSize; i++ {
			j := i + rng.Intn(population-i)
			pool[i], pool[j] = pool[j], pool[i]
			dev := events.DeviceID(pool[i] + 1)
			converted[dev] = true
			day := dayLo + rng.Intn(batchSpan)
			if day >= cfg.DurationDays {
				day = cfg.DurationDays - 1
			}
			ds.Events = append(ds.Events, events.Event{
				ID:         newID(),
				Kind:       events.KindConversion,
				Device:     dev,
				Day:        day,
				Advertiser: site,
				Product:    product,
				Value:      float64(1 + rng.Intn(cfg.MaxValue)),
			})
		}
	}

	// Impressions for converting devices only: Poisson(Knob2) per day,
	// campaign uniform over the product space. Devices are visited in
	// sorted order so generation is deterministic.
	devs := make([]events.DeviceID, 0, len(converted))
	for dev := range converted {
		devs = append(devs, dev)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	for _, dev := range devs {
		for day := 0; day < cfg.DurationDays; day++ {
			for n := rng.Poisson(cfg.Knob2); n > 0; n-- {
				ds.Events = append(ds.Events, events.Event{
					ID:         newID(),
					Kind:       events.KindImpression,
					Device:     dev,
					Day:        day,
					Publisher:  publisher,
					Advertiser: site,
					Campaign:   products[rng.Intn(cfg.Products)],
				})
			}
		}
	}

	rate := attributionRate(ds.Events, cfg.WindowDays)
	avgValue := float64(1+cfg.MaxValue) / 2
	cTilde := rate * avgValue
	if cTilde <= 0 {
		// No attribution at all (e.g. Knob2 = 0): fall back to a floor
		// so calibration stays defined; the resulting ε is large and
		// budget exhausts quickly, which is the honest behaviour.
		cTilde = avgValue / float64(cfg.BatchSize)
	}
	ds.Advertisers = []Advertiser{{
		Site:           site,
		Products:       products,
		MaxValue:       float64(cfg.MaxValue),
		AvgReportValue: cTilde,
		BatchSize:      cfg.BatchSize,
	}}
	return ds, nil
}
