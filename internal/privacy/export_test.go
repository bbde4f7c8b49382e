package privacy

import (
	"math"

	"repro/internal/events"
)

// Charge checks whether eps more privacy loss fits into querier q's slot for
// epoch e and, if so, deducts it: a one-epoch ChargeWindowBatch, the unit
// step the tests drive slot by slot.
func (l *Ledger) Charge(q events.Sym, e int64, eps float64) ChargeOutcome {
	out := []ChargeOutcome{0}
	l.ChargeWindowBatch([]WindowCharge{{Querier: q, First: e, Losses: []float64{eps}, Outcomes: out}})
	return out[0]
}

// ExpectedRMSRE returns the RMSRE contributed by Laplace noise alone for a
// query of true value total and sensitivity delta at privacy parameter eps:
// RMSRE = σ/|total| = √2·Δ/(ε·|total|). With the calibrated ε and
// total = B·c̃ this evaluates to √2·α/ln(1/β) ≈ 0.0154 ≈ the paper's
// "roughly 0.02 RMSRE".
func ExpectedRMSRE(delta, eps, total float64) float64 {
	if total == 0 {
		return math.Inf(1)
	}
	return NoiseStdDev(delta, eps) / math.Abs(total)
}

// EpsilonForStdDev inverts NoiseStdDev: the privacy loss charged for a
// report of individual sensitivity delta under noise of standard deviation
// sigma, i.e. Eq. 4's ε_x = Δ·√2/σ.
func EpsilonForStdDev(delta, sigma float64) float64 {
	if sigma <= 0 {
		panic("privacy: non-positive noise stddev")
	}
	if delta < 0 {
		panic("privacy: negative sensitivity")
	}
	return delta * math.Sqrt2 / sigma
}

// TailBound returns the magnitude t such that a single Laplace(Δ/ε) noise
// coordinate exceeds |t| with probability at most beta:
// t = (Δ/ε)·ln(1/β). Queriers use it to size error bounds.
func TailBound(delta, eps, beta float64) float64 {
	if beta <= 0 || beta >= 1 {
		panic("privacy: beta outside (0,1)")
	}
	return Scale(delta, eps) * math.Log(1/beta)
}
