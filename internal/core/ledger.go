package core

import (
	"fmt"
	"strings"

	"repro/internal/events"
)

// LedgerRow is one line of the device's privacy-loss ledger: how much budget
// one querier has consumed from one epoch. The Fig. 1 dashboard renders
// these rows so users can monitor the privacy loss their device has granted
// to each site.
type LedgerRow struct {
	Querier  events.Site
	Epoch    events.Epoch
	Consumed float64
	Capacity float64
}

// Fraction returns consumed/capacity, the fill level of the bar the
// dashboard draws (1 when capacity is zero and anything was consumed).
func (r LedgerRow) Fraction() float64 {
	if r.Capacity == 0 {
		if r.Consumed > 0 {
			return 1
		}
		return 0
	}
	f := r.Consumed / r.Capacity
	if f > 1 {
		f = 1
	}
	return f
}

// Ledger returns a snapshot of every (querier, epoch) budget slot the device
// has initialized, sorted by querier then epoch. Unlike IPA — where the
// device only sees encrypted match keys leave — on-device budgeting lets the
// device itself account every loss, which is the transparency benefit §2.3
// argues for.
func (d *Device) Ledger() []LedgerRow {
	entries := d.ledger.Rows(d.env.epsG) // sorted by querier then epoch
	rows := make([]LedgerRow, len(entries))
	for i, en := range entries {
		rows[i] = LedgerRow{
			Querier:  en.Querier,
			Epoch:    events.Epoch(en.Epoch),
			Consumed: en.Consumed,
			Capacity: en.Capacity,
		}
	}
	return rows
}

// RenderDashboard formats the ledger as the text analogue of the Fig. 1
// privacy-loss dashboard: one bar per (querier, epoch), scaled to width
// characters.
func RenderDashboard(rows []LedgerRow, width int) string {
	if width <= 0 {
		width = 40
	}
	var b strings.Builder
	var current events.Site
	for _, r := range rows {
		if r.Querier != current {
			current = r.Querier
			fmt.Fprintf(&b, "%s\n", current)
		}
		filled := int(r.Fraction() * float64(width))
		bar := strings.Repeat("█", filled) + strings.Repeat("·", width-filled)
		fmt.Fprintf(&b, "  epoch %4d  [%s] %.3f/%.3f\n", r.Epoch, bar, r.Consumed, r.Capacity)
	}
	return b.String()
}
