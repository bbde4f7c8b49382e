package core

import (
	"testing"

	"repro/internal/events"
)

// The device's budget state survives a restart as ledger rows put back one
// by one through RestoreBudgetRow (the snapshot's device blob does exactly
// that, internal/stream); these cases hold the device-level wiring of it.

func TestLoadRejectsBudgetRefund(t *testing.T) {
	// Take an early (low-consumption) copy of the rows, consume more, then
	// try to roll back: the restore must refuse to refund privacy loss.
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1.0)
	d.GenerateReport(paperRequest(nil))
	early := d.Ledger()
	d.GenerateReport(paperRequest(nil)) // consume more
	refused := 0
	for _, r := range early {
		if r.Consumed < d.Consumed(r.Querier, r.Epoch) {
			if err := d.RestoreBudgetRow(r.Querier, r.Epoch, r.Consumed); err == nil {
				t.Fatalf("rollback of %s epoch %d accepted", r.Querier, r.Epoch)
			}
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("second report consumed nothing: no rollback attempted")
	}
}

func TestLoadRejectsCorruptStates(t *testing.T) {
	d, _ := paperDevice(t, CookieMonsterPolicy{}, 1.0)
	for name, consumed := range map[string]float64{
		"negative consumed": -1,
		"over capacity":     2,
	} {
		if err := d.RestoreBudgetRow(events.Intern("x"), 6, consumed); err == nil {
			t.Fatalf("%s: corrupt row accepted", name)
		}
	}
	if len(d.Ledger()) != 0 {
		t.Fatalf("refused rows left state behind: %+v", d.Ledger())
	}
}

func TestLoadPreservesExhaustion(t *testing.T) {
	// An exhausted filter must stay exhausted across restart — otherwise
	// crashing the browser would reset per-site budgets.
	d, db := paperDevice(t, CookieMonsterPolicy{}, 0.007)
	d.GenerateReport(paperRequest(nil)) // exhausts e1 and e2 exactly
	restored := NewDevice(7, db, 0.007, CookieMonsterPolicy{})
	for _, r := range d.Ledger() {
		if err := restored.RestoreBudgetRow(r.Querier, r.Epoch, r.Consumed); err != nil {
			t.Fatal(err)
		}
	}
	_, diag, err := restored.GenerateReport(paperRequest(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.DeniedEpochs) != 2 {
		t.Fatalf("restored device denied %v, want both impression epochs", diag.DeniedEpochs)
	}
}
