package privacy

import "repro/internal/events"

// Charge checks whether eps more privacy loss fits into querier q's slot for
// epoch e and, if so, deducts it: a one-epoch ChargeWindowBatch, the unit
// step the tests drive slot by slot.
func (l *Ledger) Charge(q events.Sym, e int64, eps float64) ChargeOutcome {
	out := []ChargeOutcome{0}
	l.ChargeWindowBatch([]WindowCharge{{Querier: q, First: e, Losses: []float64{eps}, Outcomes: out}})
	return out[0]
}
