// Package scenario is the hostile-traffic catalog: named, seeded,
// parameterized perturbations that wrap any dataset.Source and reshape its
// clean, day-ordered event stream into the traffic a production
// ad-measurement service actually receives — flash-crowd bursts, late and
// out-of-order deliveries, device churn, clock-skewed sources, and
// adversarial queriers that spam high-ε requests to drain device budgets.
//
// Every spec is deterministic: the same (spec, base dataset) pair produces
// the same event sequence byte for byte, so a scenario run is as
// reproducible as a clean one. The harness (harness.go) drives each spec
// through the properties the repository already enforces on clean traffic —
// batch-vs-stream bit-equivalence at several parallelism levels and the
// crash matrix's crash→resume bit-identity — and reports the degradation
// numbers (events dropped, budget drained, accuracy vs the clean baseline)
// that make robustness measurable. DESIGN.md §11 documents the
// spec format and the invariants, and how to add a scenario.
package scenario

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/events"
)

// Spec is one named scenario: a seed plus at most a handful of perturbation
// layers applied over the base dataset's day-ordered stream. A Spec with no
// layers is the clean identity scenario. The zero value of each layer
// pointer means "not applied"; layers compose in a fixed order (churn, skew,
// burst, adversary, delay) so a spec's event sequence is a pure function of
// (spec, base).
type Spec struct {
	// Name identifies the scenario in reports and the -scenario flag.
	Name string
	// Description is the one-line catalog entry.
	Description string
	// Seed drives every random choice the perturbations make,
	// independently of the base dataset's own generation seed.
	Seed uint64

	// Burst injects a flash-crowd impression spike on one campaign.
	Burst *BurstSpec
	// Late re-delivers a fraction of events after their day has closed.
	Late *LateSpec
	// Churn makes a fraction of devices leave mid-trace and rejoin with
	// fresh identities.
	Churn *ChurnSpec
	// Skew stamps a fraction of devices' events with a shifted day.
	Skew *SkewSpec
	// Adversary adds a hostile querier that floods target devices with
	// high-ε measurement traffic.
	Adversary *AdversarySpec
}

// BurstSpec is a flash crowd: Events extra impressions for one advertiser's
// campaign, all on one day, spread across seeded random devices. A 1000×
// spike over the microbenchmark's ~50 impressions/day is Events ≈ 50000.
type BurstSpec struct {
	// Day is the burst day.
	Day int
	// Events is the number of injected impressions.
	Events int
	// Advertiser indexes the base dataset's advertiser whose first
	// product's campaign receives the burst.
	Advertiser int
}

// LateSpec delays a seeded fraction of events: each held event is
// re-delivered DelayDays later in the stream while keeping its original day
// stamp, so it arrives after its day has closed and the service's admission
// policy must deal with it.
type LateSpec struct {
	// Fraction of events held back, in [0, 1].
	Fraction float64
	// DelayDays is how many stream-days late the held events re-deliver.
	DelayDays int
}

// ChurnSpec is device churn: a seeded fraction of devices leave the
// population mid-trace (at a per-device day in the middle half of the trace)
// and their remaining traffic re-appears under fresh device identities —
// fresh budgets, no history — appended to the population.
type ChurnSpec struct {
	// Fraction of devices that churn, in [0, 1].
	Fraction float64
}

// SkewSpec is clock skew: a seeded fraction of devices stamp their events
// with a day shifted by up to MaxSkewDays. Backward skew (the default) makes
// those devices' events arrive after their stamped day closed, so they are
// dropped; Forward skew advances the service's day clock prematurely, which
// drops honest same-day traffic delivered after the skewed events — the
// blast radius is other devices' data, not the skewed device's.
type SkewSpec struct {
	// Fraction of devices with skewed clocks, in [0, 1].
	Fraction float64
	// MaxSkewDays bounds the per-device shift (each skewed device gets a
	// shift in [1, MaxSkewDays]).
	MaxSkewDays int
	// Forward selects fast clocks (stamps in the future) instead of slow
	// ones.
	Forward bool
}

// AdversarySpec is a budget-drain attacker: a new querier, not part of the
// base dataset, that plants impressions on a set of target devices and then
// streams conversions whose calibrated ε is a large share of the per-epoch
// capacity — the fastest legal way to exhaust the targets' budget for
// itself. The ledger keeps per-querier filters, so the attack saturates only
// the attacker's own lanes; the property tests (adversary_test.go) pin that
// isolation down.
type AdversarySpec struct {
	// Site is the attacker's querier origin.
	Site events.Site
	// TargetDevices is how many devices (IDs 1..TargetDevices) the
	// attacker floods.
	TargetDevices int
	// ConversionsPerDay is the attacker's daily conversion volume,
	// round-robin across the targets.
	ConversionsPerDay int
	// BatchSize, MaxValue and AvgReportValue are the attacker's
	// advertiser parameters; together with the run's calibration they set
	// the per-query ε the attacker requests.
	BatchSize      int
	MaxValue       float64
	AvgReportValue float64
}

// adversaryProduct is the attacker's one query stream.
var adversaryProduct = events.Intern("drain-0")

// advertiser is the querier the attacker registers in the metadata.
func (a AdversarySpec) advertiser() dataset.Advertiser {
	return dataset.Advertiser{
		Site:           a.Site,
		Products:       []events.Sym{adversaryProduct},
		MaxValue:       a.MaxValue,
		AvgReportValue: a.AvgReportValue,
		BatchSize:      a.BatchSize,
	}
}

// Source returns the scenario's event stream over the base dataset: the
// base's day-ordered stream with the spec's perturbation layers applied, and
// event IDs renumbered sequentially in delivery order. The renumbering makes
// (Day, ID) order coincide with delivery order on every day-monotonic
// subsequence — in particular on the admitted subsequence — which is what
// lets a batch run over the admitted events serve as the streaming run's
// bit-equivalence oracle (see Admitted).
//
// Each call builds a fresh, independent source producing the identical
// sequence; crash-recovery runs rely on that reproducibility.
func (sp Spec) Source(base *dataset.Dataset) dataset.Source {
	var src dataset.Source = base.Stream()
	if sp.Churn != nil {
		src = newChurnSource(src, *sp.Churn, sp.Seed)
	}
	if sp.Skew != nil {
		src = newSkewSource(src, *sp.Skew, sp.Seed)
	}
	if sp.Burst != nil {
		src = newBurstSource(src, *sp.Burst, sp.Seed)
	}
	if sp.Adversary != nil {
		src = newAdversarySource(src, *sp.Adversary, sp.Seed)
	}
	if sp.Late != nil {
		src = newDelaySource(src, *sp.Late, sp.Seed)
	}
	return &renumberSource{base: src}
}

// Validate checks the spec's parameters against a base dataset.
func (sp Spec) Validate(base *dataset.Dataset) error {
	if sp.Name == "" {
		return fmt.Errorf("scenario: spec without a name")
	}
	if b := sp.Burst; b != nil {
		if b.Events <= 0 || b.Day < 0 || b.Day >= base.DurationDays {
			return fmt.Errorf("scenario %s: burst of %d events on day %d outside trace",
				sp.Name, b.Events, b.Day)
		}
		if b.Advertiser < 0 || b.Advertiser >= len(base.Advertisers) {
			return fmt.Errorf("scenario %s: burst advertiser %d out of range", sp.Name, b.Advertiser)
		}
	}
	if l := sp.Late; l != nil && (l.Fraction < 0 || l.Fraction > 1 || l.DelayDays <= 0) {
		return fmt.Errorf("scenario %s: invalid late spec %+v", sp.Name, *l)
	}
	if c := sp.Churn; c != nil && (c.Fraction < 0 || c.Fraction > 1) {
		return fmt.Errorf("scenario %s: invalid churn fraction %v", sp.Name, c.Fraction)
	}
	if k := sp.Skew; k != nil && (k.Fraction < 0 || k.Fraction > 1 || k.MaxSkewDays <= 0) {
		return fmt.Errorf("scenario %s: invalid skew spec %+v", sp.Name, *k)
	}
	if a := sp.Adversary; a != nil {
		if a.Site == (events.Site{}) || a.TargetDevices <= 0 || a.ConversionsPerDay <= 0 {
			return fmt.Errorf("scenario %s: invalid adversary spec %+v", sp.Name, *a)
		}
		if err := a.advertiser().Validate(); err != nil {
			return fmt.Errorf("scenario %s: adversary: %w", sp.Name, err)
		}
	}
	return nil
}

// Catalog returns the named scenario catalog the robustness harness, the
// -scenario CLI flag, and the CI smoke job all run. Parameters are tuned for
// the figures microbenchmark (100 devices, 120 days, ~50 impressions/day);
// the specs scale with any base via fractions except where noted.
func Catalog() []Spec {
	return []Spec{
		{
			Name:        "clean",
			Description: "unperturbed baseline; the streaming run must match the golden digest",
			Seed:        1,
		},
		{
			Name:        "flash-crowd",
			Description: "1000x impression spike on one campaign for one day",
			Seed:        2,
			Burst:       &BurstSpec{Day: 45, Events: 50000},
		},
		{
			Name:        "late-events",
			Description: "8% of events re-delivered three days after their day closed",
			Seed:        3,
			Late:        &LateSpec{Fraction: 0.08, DelayDays: 3},
		},
		{
			Name:        "device-churn",
			Description: "20% of devices leave mid-trace and rejoin as fresh identities",
			Seed:        4,
			Churn:       &ChurnSpec{Fraction: 0.2},
		},
		{
			Name:        "clock-skew",
			Description: "5% of devices run slow clocks; their events arrive already expired",
			Seed:        5,
			Skew:        &SkewSpec{Fraction: 0.05, MaxSkewDays: 2},
		},
		{
			Name:        "clock-skew-forward",
			Description: "2% of devices run a day fast, prematurely closing days for everyone",
			Seed:        6,
			Skew:        &SkewSpec{Fraction: 0.02, MaxSkewDays: 1, Forward: true},
		},
		{
			Name:        "adversarial-querier",
			Description: "hostile querier floods six devices with near-capacity-epsilon queries",
			Seed:        7,
			Adversary: &AdversarySpec{
				Site:              events.Intern("attacker.example"),
				TargetDevices:     6,
				ConversionsPerDay: 4,
				BatchSize:         50,
				MaxValue:          1,
				AvgReportValue:    2,
			},
		},
	}
}

// ByName returns the cataloged spec with the given name.
func ByName(name string) (Spec, error) {
	for _, sp := range Catalog() {
		if sp.Name == name {
			return sp, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown scenario %q", name)
}
