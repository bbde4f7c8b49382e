package core

import (
	"fmt"
	"slices"

	"repro/internal/events"
	"repro/internal/privacy"
)

// Device is the on-device Cookie Monster engine for a single device d: it
// owns the flat privacy-budget ledger — one consumed-ε slot per (querier,
// epoch), each with capacity ε^G_d — and runs the report generation
// algorithm of Listing 1 over the events database it was bound to at
// construction. The binding is a read-only view the device does not own: a
// fleet's ReleaseStore drops it once generation is over, leaving the ledger
// as the device's whole state; a released device still answers every ledger
// read, and its report methods panic. All methods are safe for concurrent
// use; a report's whole budget check-and-consume sequence runs under a
// single ledger lock acquisition.
//
// A device holds nothing its fleet shares with the rest: ε^G, the loss
// policy and the store sit in the fleet's one environment, which the device
// points at. A fleet's device lives by value in one of the fleet's chunks,
// so its one heap object of its own is its table's pointer-free block.
type Device struct {
	id     events.DeviceID
	env    *deviceEnv
	ledger privacy.Table
}

// deviceEnv is what a device reads besides its ledger: the event store it
// is bound to (nil once released), its loss policy and the capacity ε^G of
// every ledger slot. Every device of a fleet shares the fleet's, so
// releasing the store is one write.
type deviceEnv struct {
	db     *events.Database
	policy LossPolicy
	epsG   float64
}

// NewDevice returns a device engine bound to db, with per-epoch, per-querier
// budget capacity epsG, charging losses according to policy
// (CookieMonsterPolicy for the real system, ARALikePolicy for the baseline).
// The device reads db for every report it generates.
func NewDevice(id events.DeviceID, db *events.Database, epsG float64, policy LossPolicy) *Device {
	return &Device{id: id, env: newEnv(db, epsG, policy)}
}

// newEnv checks a device configuration and returns its environment.
func newEnv(db *events.Database, epsG float64, policy LossPolicy) *deviceEnv {
	if db == nil {
		panic("core: nil database")
	}
	if epsG < 0 {
		panic("core: negative budget capacity")
	}
	if policy == nil {
		panic("core: nil loss policy")
	}
	return &deviceEnv{db: db, policy: policy, epsG: epsG}
}

// ID returns the device identifier.
func (d *Device) ID() events.DeviceID { return d.id }

// Capacity returns the per-epoch budget capacity ε^G_d.
func (d *Device) Capacity() float64 { return d.env.epsG }

// Policy returns the loss policy in effect.
func (d *Device) Policy() LossPolicy { return d.env.policy }

// Consumed returns the privacy loss consumed so far by querier q from epoch
// e on this device (0 if the slot was never touched). Experiments read
// it; queriers never can — remaining budgets are data-dependent and must
// stay hidden (§3.4).
func (d *Device) Consumed(q events.Site, e events.Epoch) float64 {
	return d.ledger.Consumed(q, int64(e))
}

// ConsumedByQuerier returns each querier's total consumed budget across all
// of the device's epochs — the per-(device, advertiser) aggregate behind the
// Fig. 6 CDFs. Each total accumulates in ascending epoch order (the ledger
// lane's natural order), so float results are deterministic run-to-run.
func (d *Device) ConsumedByQuerier() map[events.Site]float64 {
	out := make(map[events.Site]float64, d.ledger.NumQueriers())
	d.ledger.RangeTotals(func(q events.Site, total float64) { out[q] = total })
	return out
}

// MarkRequested records that a report window of querier q covers epochs
// first through last on this device, whatever the window goes on to charge
// (see privacy.Table.MarkRequested). The engines call it once per request,
// from the coordinator, before the generate stage.
func (d *Device) MarkRequested(q events.Site, first, last events.Epoch) {
	d.ledger.MarkRequested(q, int64(first), int64(last))
}

// RangeRequested visits the device's requested epochs in ascending order,
// each with its queriers in name order and what they consumed from it — the
// walk behind the Fig. 4 metrics and the snapshot's device blob. fn runs
// under the ledger's lock and must not call back into the device.
func (d *Device) RangeRequested(fn func(e events.Epoch, queriers []events.Site, consumed []float64)) {
	d.ledger.RangeRequested(func(e int64, queriers []events.Site, consumed []float64) {
		fn(events.Epoch(e), queriers, consumed)
	})
}

// RangeLanes visits the device's ledger lane by lane, queriers in name
// order, each with its first epoch, its slots' consumed budgets (negative
// for a slot never initialized) and its requested marks (non-zero where
// marked), slot i at epoch base+i — the walk behind the snapshot's device
// blob (see privacy.Table.RangeLanes). fn runs under the ledger's lock and
// must not call back into the device or keep the slices.
func (d *Device) RangeLanes(fn func(q events.Site, base events.Epoch, consumed []float64, marks []byte)) {
	d.ledger.RangeLanes(func(q events.Sym, base int64, consumed []float64, marks []byte) {
		fn(q, events.Epoch(base), consumed, marks)
	})
}

// BudgetDenials returns the number of budget charges this device's ledger
// has denied — how often queriers ran into the device's filter capacity.
// The count never influences charge outcomes, but it is checkpointed (and
// reinstated via RestoreBudgetDenials) so drain telemetry survives crashes.
func (d *Device) BudgetDenials() uint64 { return d.ledger.Denials() }

// RestoreBudgetDenials reinstates a checkpointed denial count (monotone:
// the larger of snapshot and live value wins).
func (d *Device) RestoreBudgetDenials(n uint64) { d.ledger.RestoreDenials(n) }

// LedgerVersion returns the device ledger's mutation counter — the dirty
// bit the incremental checkpointer compares against the version it last
// captured. Equal versions guarantee the device's persisted budget state
// (rows, denial count and requested marks) is unchanged.
func (d *Device) LedgerVersion() uint64 { return d.ledger.Version() }

// RestoreBudgetRow sets one (querier, epoch) budget slot from persisted
// state — the checkpoint/restore path into the device's flat ledger. It
// refuses refunds and a consumed budget beyond the device's ε^G (see
// privacy.Table.Restore).
func (d *Device) RestoreBudgetRow(q events.Site, e events.Epoch, consumed float64) error {
	return d.ledger.Restore(d.env.epsG, q, int64(e), consumed)
}

// GenerateReport runs Listing 1's compute_attribution_report for one
// conversion. It always returns a fixed-shape report (null-padded when
// budget or data is missing) so that report presence and shape leak nothing;
// an error is returned only for malformed requests.
//
// It is a GenerateReportBatch visit of one request on a fresh workspace,
// with full Diagnostics built from that workspace — convenient for tests,
// examples, and one-off callers. The query executor calls
// GenerateReportBatch directly, reusing a per-worker workspace and skipping
// the diagnostics.
func (d *Device) GenerateReport(req *Request) (*Report, *Diagnostics, error) {
	var ms MultiScratch
	var rep [1]*Report
	var st [1]ReportStats
	if _, err := d.GenerateReportBatch([]*Request{req}, &ms, rep[:], st[:]); err != nil {
		return nil, nil, err
	}
	return rep[0], diagnostics(req, &ms.ss[0], st[0]), nil
}

// store returns the events database the device reads, panicking with the
// release named once the device's fleet let go of it.
func (d *Device) store() *events.Database {
	if d.env.db == nil {
		panic(fmt.Sprintf("core: report generation on device %d after its event store was released (Fleet.ReleaseStore)", d.id))
	}
	return d.env.db
}

// lossPass computes step 2 of Listing 1 over a filled selection: the
// individual privacy loss per window epoch (Thm. 4), plus the side query's κ
// surcharge when bias measurement is on.
func (d *Device) lossPass(req *Request, s *Scratch) {
	surcharge := biasSurcharge(req)
	for i, k := 0, req.WindowSize(); i < k; i++ {
		rel := s.truthful[i]
		s.relevant[i] = len(rel)
		s.losses[i] = d.env.policy.EpochLoss(rel, req) + surcharge
	}
}

// finish folds the charge outcomes and runs step 4: attribution over
// surviving epochs, the lazy truth pass, and report assembly around the
// caller-minted nonce; q is req.Querier's symbol.
func (d *Device) finish(req *Request, q events.Site, s *Scratch, nonce Nonce) (*Report, ReportStats) {
	stats := ReportStats{}
	diverged := false
	for i, k := 0, req.WindowSize(); i < k; i++ {
		switch s.outcomes[i] {
		case privacy.ChargeZero:
			s.surviving[i] = s.truthful[i]
		case privacy.ChargeOK:
			s.surviving[i] = s.truthful[i]
			// Ascending-epoch accumulation keeps the fold bit-identical
			// to the old sorted per-epoch sum.
			stats.TotalLoss += s.losses[i]
		case privacy.ChargeDenied:
			s.surviving[i] = nil
			stats.Denied = true
			if len(s.truthful[i]) > 0 {
				diverged = true
			}
		}
	}

	// Step 4: attribution over surviving epochs, clipped to the report
	// global sensitivity and already padded to fixed dimension by the
	// attribution function.
	h := AttributeWindow(req, s.surviving)

	// The truth pass is lazy: surviving and truthful only differ when a
	// denial dropped relevant events, so in the common (no-denial) case the
	// report histogram *is* the truth and the second attribution pass is
	// skipped entirely, bit for bit.
	if diverged {
		tr := AttributeWindow(req, s.truthful)
		stats.TruthTotal = tr.Total()
		stats.Biased = !slices.Equal(h, tr)
	} else {
		stats.TruthTotal = h.Total()
	}

	rep := &Report{
		Nonce:            nonce,
		Querier:          q,
		Device:           d.id,
		Histogram:        h,
		Epsilon:          req.Epsilon,
		QuerySensitivity: req.QuerySensitivity,
	}
	if req.Bias != nil {
		rep.BiasFlag = biasFlag(req, s.outcomes, s.surviving)
	}
	return rep, stats
}

// diagnostics builds a finished report's Diagnostics, freshly allocated,
// from the workspace that generated it: s still holds the visit's
// selection, losses and charge outcomes.
func diagnostics(req *Request, s *Scratch, st ReportStats) *Diagnostics {
	diag := &Diagnostics{
		FirstEpoch:       req.FirstEpoch,
		TrueHistogram:    AttributeWindow(req, s.truthful),
		PerEpochLoss:     make([]float64, len(s.losses)),
		RelevantPerEpoch: slices.Clone(s.relevant),
		Biased:           st.Biased,
	}
	for i, o := range s.outcomes {
		switch o {
		case privacy.ChargeOK:
			diag.PerEpochLoss[i] = s.losses[i]
		case privacy.ChargeDenied:
			diag.DeniedEpochs = append(diag.DeniedEpochs, req.FirstEpoch+events.Epoch(i))
		}
	}
	return diag
}

// biasFlag computes the κ-scaled side-query coordinate of Appendix F. Under
// the heartbeat convention an epoch reads as ∅ exactly when its slot denied
// the loss, so:
//
//   - generic flag (Thm. 15): fires when any window epoch was denied;
//   - last-touch flag (Thm. 16): fires when some denied epoch has no
//     relevant impression in any *later* surviving epoch — i.e. the denial
//     could actually have changed a last-touch report.
func biasFlag(req *Request, outcomes []privacy.ChargeOutcome, surviving [][]events.Event) float64 {
	anyDenied := false
	for _, o := range outcomes {
		if o == privacy.ChargeDenied {
			anyDenied = true
			break
		}
	}
	if !anyDenied {
		return 0
	}
	if !req.Bias.LastTouch {
		return req.Bias.Kappa
	}
	for i, o := range outcomes {
		if o != privacy.ChargeDenied {
			continue
		}
		later := false
		for j := i + 1; j < len(surviving); j++ {
			if len(surviving[j]) > 0 {
				later = true
				break
			}
		}
		if !later {
			return req.Bias.Kappa
		}
	}
	return 0
}
