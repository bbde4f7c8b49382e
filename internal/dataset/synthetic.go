package dataset

import (
	"fmt"
	"math"

	"repro/internal/events"
	"repro/internal/stats"
)

// SyntheticConfig parameterizes the generator-backed streaming source: a
// micro-style single-advertiser workload (time-ordered query batches cycling
// through products, Poisson impression traffic) generated one day at a time,
// so a trace over millions of devices streams with peak memory proportional
// to a single day's events plus one open batch — never the full trace.
type SyntheticConfig struct {
	// Seed makes the stream reproducible: two sources with the same
	// config yield identical event sequences.
	Seed uint64
	// Population is the device population (millions in production; the
	// generator's memory does not grow with it beyond one batch's device
	// set).
	Population int
	// Products is the number of products (one query stream each).
	Products int
	// BatchSize is B, conversions per query.
	BatchSize int
	// QueriesPerProduct is how many batches each product accumulates.
	QueriesPerProduct int
	// DurationDays is the trace length.
	DurationDays int
	// ImpressionsPerDay is the expected impressions per device per day
	// (the micro benchmark's knob2), spread uniformly over the
	// population.
	ImpressionsPerDay float64
	// MaxValue caps conversion values (uniform 1..MaxValue).
	MaxValue int
	// WindowDays is the attribution window, used for the advertiser's c̃
	// estimate.
	WindowDays int
}

// DefaultSyntheticConfig mirrors the default microbenchmark at the same
// scale; raise Population and DurationDays freely — the source's memory
// stays day-bounded.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		Seed:              1,
		Population:        5000,
		Products:          10,
		BatchSize:         500,
		QueriesPerProduct: 2,
		DurationDays:      120,
		ImpressionsPerDay: 0.1,
		MaxValue:          10,
		WindowDays:        30,
	}
}

func (c SyntheticConfig) validate() error {
	totalBatches := c.Products * c.QueriesPerProduct
	switch {
	case c.Population <= 0 || c.Products <= 0 || c.BatchSize <= 0 || c.QueriesPerProduct <= 0:
		return fmt.Errorf("dataset: synthetic requires positive population/products/batch/queries")
	case c.DurationDays <= 0 || c.WindowDays <= 0:
		return fmt.Errorf("dataset: synthetic requires positive duration and window")
	case c.ImpressionsPerDay < 0:
		return fmt.Errorf("dataset: negative impressions per day")
	case c.MaxValue <= 0:
		return fmt.Errorf("dataset: non-positive max value %d", c.MaxValue)
	case c.BatchSize > c.Population:
		return fmt.Errorf("dataset: batch size %d exceeds population %d", c.BatchSize, c.Population)
	case totalBatches > c.DurationDays:
		return fmt.Errorf("dataset: %d batches cannot fill within %d days", totalBatches, c.DurationDays)
	}
	return nil
}

// SyntheticSource streams the synthetic workload day by day. It implements
// Source; two instances with the same config produce identical streams, so
// the batch specification (Materialize + workload.Execute) and the streaming
// service can be run against the same scenario and compared bit-for-bit.
type SyntheticSource struct {
	cfg  SyntheticConfig
	meta Meta
	rng  *stats.RNG

	site, publisher events.Site
	// products names each product once; every event indexes it.
	products  []events.Sym
	batchSpan int
	day       int
	nextID    events.EventID
	// batchUsed tracks the open batch's sampled devices — the only
	// population-dependent state, bounded by one batch.
	batchUsed map[int]struct{}
	lastBatch int

	buf []events.Event // current day's remaining events
	pos int
}

// NewSynthetic returns a generator-backed streaming source for cfg.
func NewSynthetic(cfg SyntheticConfig) (*SyntheticSource, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	site := events.Intern("synthetic.example")
	products := productKeys(cfg.Products)
	// The advertiser's c̃ estimate is analytic: a conversion is
	// attributable when the device saw at least one impression for the
	// product within the window, which under Poisson traffic happens with
	// probability 1 − exp(−λ·W/K). No materialization needed — and both
	// modes see the identical calibration input.
	avgValue := float64(1+cfg.MaxValue) / 2
	rate := 1 - math.Exp(-cfg.ImpressionsPerDay*float64(cfg.WindowDays)/float64(cfg.Products))
	cTilde := rate * avgValue
	if cTilde <= 0 {
		cTilde = avgValue / float64(cfg.BatchSize)
	}
	totalBatches := cfg.Products * cfg.QueriesPerProduct
	span := cfg.DurationDays / totalBatches
	if span == 0 {
		span = 1
	}
	return &SyntheticSource{
		cfg: cfg,
		meta: Meta{
			Name:              "synthetic",
			PopulationDevices: cfg.Population,
			DurationDays:      cfg.DurationDays,
			Advertisers: []Advertiser{{
				Site:           site,
				Products:       products,
				MaxValue:       float64(cfg.MaxValue),
				AvgReportValue: cTilde,
				BatchSize:      cfg.BatchSize,
			}},
		},
		rng:       stats.Stream(cfg.Seed, "synthetic"),
		site:      site,
		publisher: events.Intern("pub.example"),
		products:  products,
		batchSpan: span,
		lastBatch: -1,
		batchUsed: make(map[int]struct{}, cfg.BatchSize),
	}, nil
}

// Meta implements Source.
func (s *SyntheticSource) Meta() Meta { return s.meta }

// Next implements Source.
func (s *SyntheticSource) Next() (events.Event, bool) {
	for s.pos >= len(s.buf) {
		if s.day >= s.cfg.DurationDays {
			return events.Event{}, false
		}
		s.generateDay(s.day)
		s.day++
	}
	ev := s.buf[s.pos]
	s.pos++
	return ev, true
}

// sampleBatchDevice draws a device not yet used by the open batch.
// Rejection sampling is O(1) expected while the batch covers less than half
// the population; beyond that the loop still terminates (validate caps B at
// the population) but a dense batch costs more draws.
func (s *SyntheticSource) sampleBatchDevice() events.DeviceID {
	for {
		d := s.rng.Intn(s.cfg.Population)
		if _, dup := s.batchUsed[d]; !dup {
			s.batchUsed[d] = struct{}{}
			return events.DeviceID(d + 1)
		}
	}
}

// generateDay fills s.buf with day d's events: the day's share of the
// current batch's conversions, then Poisson impression traffic across the
// population.
func (s *SyntheticSource) generateDay(d int) {
	s.buf = s.buf[:0]
	s.pos = 0
	totalBatches := s.cfg.Products * s.cfg.QueriesPerProduct

	if bi := d / s.batchSpan; bi < totalBatches {
		if bi != s.lastBatch {
			s.lastBatch = bi
			clear(s.batchUsed)
		}
		// Spread the batch's B conversions evenly across its span.
		b, span := s.cfg.BatchSize, s.batchSpan
		k := d % span
		count := b / span
		if k < b%span {
			count++
		}
		product := s.products[bi%s.cfg.Products]
		for i := 0; i < count; i++ {
			s.nextID++
			s.buf = append(s.buf, events.Event{
				ID:         s.nextID,
				Kind:       events.KindConversion,
				Device:     s.sampleBatchDevice(),
				Day:        d,
				Advertiser: s.site,
				Product:    product,
				Value:      float64(1 + s.rng.Intn(s.cfg.MaxValue)),
			})
		}
	}

	// Impression traffic: one Poisson draw for the population total, then
	// uniform device/campaign placement — O(events), never O(population).
	n := s.rng.Poisson(float64(s.cfg.Population) * s.cfg.ImpressionsPerDay)
	for i := 0; i < n; i++ {
		s.nextID++
		s.buf = append(s.buf, events.Event{
			ID:         s.nextID,
			Kind:       events.KindImpression,
			Device:     events.DeviceID(s.rng.Intn(s.cfg.Population) + 1),
			Day:        d,
			Publisher:  s.publisher,
			Advertiser: s.site,
			Campaign:   s.products[s.rng.Intn(s.cfg.Products)],
		})
	}
}
