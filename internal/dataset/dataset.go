// Package dataset generates the three workloads of the paper's evaluation
// (§6.1): the controlled microbenchmark with its two knobs, a PATCG-like
// synthetic advertising dataset, and a Criteo-like multi-advertiser dataset
// with optional impression augmentation (Criteo++).
//
// All generators are deterministic given a seed and emit day-stamped raw
// events; Build partitions them into device-epoch records for a chosen epoch
// length, so the same dataset can be re-used across the epoch-length sweeps
// of Fig. 5c and 6c.
//
// Scaling note (DESIGN.md §3): populations are scaled down from the paper's
// (which run to 16M users) while preserving the rates that drive the
// results — per-query participation, impressions per user-day, attribution
// rate, conversions per user, and advertiser size skew. Budget dynamics
// depend on the ratio of calibrated query ε to the per-epoch capacity ε^G,
// which the workload keeps in the paper's regime.
package dataset

import (
	"fmt"
	"math"

	"repro/internal/events"
)

// Advertiser describes one querier in a dataset: its site, the products it
// measures, and the calibration inputs its queries will use.
type Advertiser struct {
	// Site is the advertiser's origin (e.g. "nike.com").
	Site events.Site
	// Products are the product keys the advertiser queries, one query
	// stream per product. Impression campaigns use the same keys.
	Products []string
	// MaxValue is the largest possible conversion value — the query
	// global sensitivity Δ.
	MaxValue float64
	// AvgReportValue is the advertiser's rough estimate c̃ of the average
	// report value (attribution rate × average conversion value), used by
	// the ε-calibration formula of §6.1.
	AvgReportValue float64
	// BatchSize is B, the number of reports the advertiser accumulates
	// before running a summation query.
	BatchSize int
}

// Validate checks the advertiser against the calibration domain every query
// it runs depends on: B ≥ 1, since the planner cuts batches of B and the
// ε formula divides by it, and Δ and c̃ finite and positive, since the ε
// formula divides by c̃ and the Laplace scale Δ/ε must be a positive real.
func (a Advertiser) Validate() error {
	switch {
	case a.BatchSize < 1:
		return fmt.Errorf("dataset: advertiser %q: batch size %d below 1", a.Site, a.BatchSize)
	case !positiveFinite(a.MaxValue):
		return fmt.Errorf("dataset: advertiser %q: max value %v not finite and positive", a.Site, a.MaxValue)
	case !positiveFinite(a.AvgReportValue):
		return fmt.Errorf("dataset: advertiser %q: average report value %v not finite and positive", a.Site, a.AvgReportValue)
	}
	return nil
}

// positiveFinite reports whether v is a finite real above zero (NaN fails).
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Dataset is a generated workload: raw events plus the metadata the workload
// driver needs to enact the §2.1 scenario.
type Dataset struct {
	// Name identifies the dataset in experiment output.
	Name string
	// Events holds every impression and conversion, day-stamped.
	Events []events.Event
	// PopulationDevices is the total device population, including
	// devices that never convert (they matter for the budget-consumption
	// denominators of Fig. 4: off-device budgeting charges them too).
	PopulationDevices int
	// DurationDays is the length of the simulated trace.
	DurationDays int
	// Advertisers lists the queriers.
	Advertisers []Advertiser
}

// Build partitions the dataset's events into a device-epoch database for the
// given epoch length in days. The database is compiled frozen in one shot
// (events.NewFrozen): events land directly in the columnar arena with no
// intermediate mutable store, and the read path is safe for the workload
// engine's concurrent report generation.
func (d *Dataset) Build(epochDays int) *events.Database {
	return events.NewFrozen(epochDays, d.Events)
}

// Epochs returns the number of epochs the trace spans at the given epoch
// length.
func (d *Dataset) Epochs(epochDays int) int {
	if d.DurationDays == 0 {
		return 0
	}
	return int(events.EpochOfDay(d.DurationDays-1, epochDays)) + 1
}

// Conversions counts conversion events.
func (d *Dataset) Conversions() int {
	n := 0
	for _, ev := range d.Events {
		if ev.IsConversion() {
			n++
		}
	}
	return n
}

// Impressions counts impression events.
func (d *Dataset) Impressions() int {
	n := 0
	for _, ev := range d.Events {
		if ev.IsImpression() {
			n++
		}
	}
	return n
}

// String summarizes the dataset.
func (d *Dataset) String() string {
	return fmt.Sprintf("%s: %d devices, %d days, %d impressions, %d conversions, %d advertisers",
		d.Name, d.PopulationDevices, d.DurationDays, d.Impressions(), d.Conversions(), len(d.Advertisers))
}

// productKey names product p of an advertiser; campaigns reuse the key so
// the per-product selectors match.
func productKey(p int) string { return fmt.Sprintf("product-%d", p) }

// attributionRate measures the fraction of conversions that have at least
// one relevant impression (same device, same product key) within windowDays
// days before the conversion. Generators use it to derive the advertiser's
// c̃ estimate, mirroring a querier that knows its historical match rate.
func attributionRate(evs []events.Event, windowDays int) float64 {
	type devProduct struct {
		d events.DeviceID
		p string
	}
	impDays := make(map[devProduct][]int)
	for _, ev := range evs {
		if ev.IsImpression() {
			key := devProduct{ev.Device, ev.Campaign}
			impDays[key] = append(impDays[key], ev.Day)
		}
	}
	conversions, attributed := 0, 0
	for _, ev := range evs {
		if !ev.IsConversion() {
			continue
		}
		conversions++
		for _, day := range impDays[devProduct{ev.Device, ev.Product}] {
			if day <= ev.Day && day > ev.Day-windowDays {
				attributed++
				break
			}
		}
	}
	if conversions == 0 {
		return 0
	}
	return float64(attributed) / float64(conversions)
}
