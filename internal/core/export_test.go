package core

import (
	"repro/internal/events"
	"repro/internal/privacy"
)

// testCharge deducts eps from (q, e)'s ledger slot directly — the test
// analogue of the old d.filter(q, e).Consume(eps), used to pre-exhaust
// budgets before exercising report generation.
func (d *Device) testCharge(q events.Site, e events.Epoch, eps float64) privacy.ChargeOutcome {
	out := []privacy.ChargeOutcome{0}
	d.ledger.ChargeWindowBatch([]privacy.WindowCharge{{Querier: q, First: int64(e), Losses: []float64{eps}, Outcomes: out}})
	return out[0]
}
