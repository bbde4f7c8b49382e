package scenario

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/workload"
)

// The adversarial-querier property suite: whatever the attacker's
// parameters, the on-device ledger must hold two lines. (1) Safety — no
// (querier, epoch) filter is ever pushed past its capacity; the attacker can
// drain its own lane to the brim and no further. (2) Isolation — the honest
// queriers' lanes, and their query results' deterministic fields, are
// bit-identical to a run with no attacker at all.

// attackVariants spans the attack surface: the calibrated per-query ε grows
// from a small flood (many grants before saturation) through near-capacity
// (a couple of grants then denial) to over-capacity (every charge denied).
// With the micro workload's calibration (α=0.05, β=0.01) and EpsilonG = 2,
// ε = ln(100)/(0.05·B·c̃) · Δ.
func attackVariants() []AdversarySpec {
	return []AdversarySpec{
		// ε ≈ 0.23: flood of cheap queries.
		{Site: events.Intern("attacker.example"), TargetDevices: 6, ConversionsPerDay: 8,
			BatchSize: 200, MaxValue: 1, AvgReportValue: 2},
		// ε ≈ 0.92: the catalog's near-capacity drain.
		{Site: events.Intern("attacker.example"), TargetDevices: 6, ConversionsPerDay: 4,
			BatchSize: 50, MaxValue: 1, AvgReportValue: 2},
		// ε ≈ 1.84: one grant per epoch lane, then denial.
		{Site: events.Intern("attacker.example"), TargetDevices: 6, ConversionsPerDay: 12,
			BatchSize: 25, MaxValue: 1, AvgReportValue: 2},
		// ε ≈ 9.21 > EpsilonG: every single charge denied.
		{Site: events.Intern("attacker.example"), TargetDevices: 6, ConversionsPerDay: 4,
			BatchSize: 10, MaxValue: 1, AvgReportValue: 1},
	}
}

// honestRows collects each device's ledger rows for queriers other than the
// attacker, keyed so two runs can be compared exactly.
type rowKey struct {
	dev   events.DeviceID
	q     events.Site
	epoch events.Epoch
}

func honestRows(run *workload.Run, attacker events.Site) map[rowKey]float64 {
	rows := make(map[rowKey]float64)
	run.Fleet.Range(func(d *core.Device) bool {
		for _, r := range d.Ledger() {
			if r.Querier == attacker {
				continue
			}
			rows[rowKey{d.ID(), r.Querier, r.Epoch}] = r.Consumed
		}
		return true
	})
	return rows
}

// execSpec runs a spec's streaming workload at parallelism 4.
func execSpec(t *testing.T, h Harness, sp Spec) *workload.Run {
	t.Helper()
	run, err := workload.ExecuteSource(h.streamCfg(4), sp.Source(h.Dataset))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestAdversaryNeverExceedsCapacity(t *testing.T) {
	h := newHarness(t)
	for i, adv := range attackVariants() {
		adv := adv
		t.Run(fmt.Sprintf("variant-%d", i), func(t *testing.T) {
			sp := Spec{Name: fmt.Sprintf("attack-%d", i), Seed: 100 + uint64(i), Adversary: &adv}
			run := execSpec(t, h, sp)
			run.Fleet.Range(func(d *core.Device) bool {
				for _, r := range d.Ledger() {
					if r.Consumed > r.Capacity*(1+1e-9) {
						t.Errorf("device %d: %s epoch %d consumed %g > capacity %g",
							d.ID(), r.Querier, r.Epoch, r.Consumed, r.Capacity)
					}
				}
				return true
			})
		})
	}
}

func TestAdversaryLedgerIsolation(t *testing.T) {
	h := newHarness(t)
	cleanRun := execSpec(t, h, Spec{Name: "isolation-clean", Seed: 1})
	wantRows := honestRows(cleanRun, events.Site{})

	for i, adv := range attackVariants() {
		adv := adv
		t.Run(fmt.Sprintf("variant-%d", i), func(t *testing.T) {
			sp := Spec{Name: fmt.Sprintf("attack-%d", i), Seed: 100 + uint64(i), Adversary: &adv}
			run := execSpec(t, h, sp)

			// Honest lanes: exactly the clean run's, bit for bit.
			got := honestRows(run, adv.Site)
			if len(got) != len(wantRows) {
				t.Errorf("honest ledger rows: %d under attack, %d clean", len(got), len(wantRows))
			}
			for k, want := range wantRows {
				if gotC, ok := got[k]; !ok || gotC != want {
					t.Errorf("device %d %s epoch %d: consumed %v under attack, %v clean",
						k.dev, k.q, k.epoch, gotC, want)
				}
			}

			// Honest results: the non-attacker subsequence of the schedule
			// must match the clean run query for query on every field not
			// fed by the shared noise stream (whose draws the attacker's
			// interleaved queries legitimately shift).
			var honest []workload.QueryResult
			for _, res := range run.Results {
				if res.Querier != adv.Site {
					honest = append(honest, res)
				}
			}
			if len(honest) != len(cleanRun.Results) {
				t.Fatalf("honest queries: %d under attack, %d clean", len(honest), len(cleanRun.Results))
			}
			for j, res := range honest {
				want := cleanRun.Results[j]
				if res.Querier != want.Querier || res.Product != want.Product ||
					res.Batch != want.Batch || res.Epsilon != want.Epsilon ||
					res.Executed != want.Executed || res.Truth != want.Truth ||
					res.DeniedReports != want.DeniedReports ||
					res.BiasedReports != want.BiasedReports ||
					res.FirstEpoch != want.FirstEpoch || res.LastEpoch != want.LastEpoch {
					t.Errorf("honest query %d diverged under attack:\n%+v\n%+v", j, res, want)
				}
			}
		})
	}
}

func TestAdversaryDrainAndDenial(t *testing.T) {
	h := newHarness(t)
	clean := execSpec(t, h, Spec{Name: "drain-clean", Seed: 1})
	cleanDenials := clean.BudgetDenials()

	variants := attackVariants()
	for i, adv := range variants {
		adv := adv
		over := i == len(variants)-1 // the ε > EpsilonG variant
		t.Run(fmt.Sprintf("variant-%d", i), func(t *testing.T) {
			sp := Spec{Name: fmt.Sprintf("attack-%d", i), Seed: 100 + uint64(i), Adversary: &adv}
			run := execSpec(t, h, sp)
			consumed := run.ConsumedByQuerier()[adv.Site]
			switch {
			case over:
				// Requests beyond capacity are denied outright and consume
				// nothing — the attacker cannot even fill its own lane.
				if consumed != 0 {
					t.Errorf("over-capacity attacker consumed %v, want 0", consumed)
				}
			default:
				if consumed <= 0 {
					t.Error("attacker consumed nothing; the attack variant is toothless")
				}
			}
			if run.BudgetDenials() <= cleanDenials {
				t.Errorf("attack denials %d not above clean %d", run.BudgetDenials(), cleanDenials)
			}
			// Drained or denied, the attacker must not move honest totals.
			for q, eps := range clean.ConsumedByQuerier() {
				if got := run.ConsumedByQuerier()[q]; got != eps || math.IsNaN(got) {
					t.Errorf("querier %s consumed %v under attack, %v clean", q, got, eps)
				}
			}
		})
	}
}
