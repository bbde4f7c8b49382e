package attribution

import "repro/internal/events"

// Logic distributes a conversion's value over a time-ordered list of
// relevant impressions. It is the policy knob of the attribution function:
// last-touch gives all credit to the most recent impression, equal-credit
// splits it, and so on (§2.1).
type Logic interface {
	// Credits returns one credit per impression in imps (aligned by
	// index, imps in ascending time order) summing to at most value.
	// It must return nil for an empty impression list.
	Credits(imps []events.Event, value float64) []float64
	// Name identifies the logic in experiment output.
	Name() string
	// ShiftsCredit reports whether removing events can move credit
	// between output coordinates (rather than only removing it). It
	// selects between the Δ = Amax and Δ = 2·Amax cases of the report
	// global-sensitivity formula (Thm. 18): last-touch shifts (removing
	// the last impression promotes an earlier one), equal-credit does
	// not.
	ShiftsCredit() bool
}

// LastTouch assigns the full conversion value to the most recent relevant
// impression — the default policy of ARA and of the paper's evaluation.
type LastTouch struct{}

// Credits implements Logic.
func (LastTouch) Credits(imps []events.Event, value float64) []float64 {
	if len(imps) == 0 {
		return nil
	}
	credits := make([]float64, len(imps))
	credits[len(imps)-1] = value
	return credits
}

// Name implements Logic.
func (LastTouch) Name() string { return "last-touch" }

// ShiftsCredit implements Logic: removing the last impression shifts the
// whole value to the previous one.
func (LastTouch) ShiftsCredit() bool { return true }

// FirstTouch assigns the full conversion value to the earliest relevant
// impression.
type FirstTouch struct{}

// Credits implements Logic.
func (FirstTouch) Credits(imps []events.Event, value float64) []float64 {
	if len(imps) == 0 {
		return nil
	}
	credits := make([]float64, len(imps))
	credits[0] = value
	return credits
}

// Name implements Logic.
func (FirstTouch) Name() string { return "first-touch" }

// ShiftsCredit implements Logic.
func (FirstTouch) ShiftsCredit() bool { return true }

// EqualCredit splits the conversion value evenly across all relevant
// impressions (the paper's "equal credit" policy).
type EqualCredit struct{}

// Credits implements Logic.
func (EqualCredit) Credits(imps []events.Event, value float64) []float64 {
	if len(imps) == 0 {
		return nil
	}
	credits := make([]float64, len(imps))
	share := value / float64(len(imps))
	for i := range credits {
		credits[i] = share
	}
	return credits
}

// Name implements Logic.
func (EqualCredit) Name() string { return "equal-credit" }

// ShiftsCredit implements Logic: removing one impression renormalizes the
// share of the others, moving credit between coordinates.
func (EqualCredit) ShiftsCredit() bool { return true }

// LinearDecay weights impressions by recency: the i-th of n impressions
// (1-based, oldest first) receives weight i/Σj, so newer impressions earn
// proportionally more.
type LinearDecay struct{}

// Credits implements Logic.
func (LinearDecay) Credits(imps []events.Event, value float64) []float64 {
	n := len(imps)
	if n == 0 {
		return nil
	}
	credits := make([]float64, n)
	total := float64(n*(n+1)) / 2
	for i := range credits {
		credits[i] = value * float64(i+1) / total
	}
	return credits
}

// Name implements Logic.
func (LinearDecay) Name() string { return "linear-decay" }

// ShiftsCredit implements Logic.
func (LinearDecay) ShiftsCredit() bool { return true }
