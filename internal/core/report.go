package core

import (
	"sync/atomic"

	"repro/internal/attribution"
	"repro/internal/events"
)

// Nonce is the unique report identifier r: the device generates it at report
// time and the aggregation service tracks it to guarantee each report is
// consumed at most once (sensitivity control, §2.2).
type Nonce uint64

var nonceCounter atomic.Uint64

// newNonce mints a process-unique nonce. A deployment would use a random
// 128-bit value; uniqueness is the only property the protocol needs.
func newNonce() Nonce { return Nonce(nonceCounter.Add(1)) }

// newNonceBlock reserves n consecutive nonces with a single atomic add and
// returns the first — the batched generate stage's per-device draw, one
// counter operation for a whole device's reports instead of one per report.
// Uniqueness and monotonicity (the NonceFloor contract) hold exactly as for
// newNonce; nothing downstream depends on nonce values beyond that.
func newNonceBlock(n int) Nonce {
	return Nonce(nonceCounter.Add(uint64(n))-uint64(n)) + 1
}

// NonceFloor returns the highest nonce minted so far — the high-water mark a
// crash-safe service records so that a restarted process never re-mints a
// nonce the aggregation service has already consumed or retired.
func NonceFloor() Nonce { return Nonce(nonceCounter.Load()) }

// EnsureNonceFloor ratchets the nonce counter up to at least floor, so every
// nonce minted from now on is strictly greater. It never lowers the counter
// (which could re-mint a consumed nonce); a CAS loop keeps concurrent
// ratchets monotone.
func EnsureNonceFloor(floor Nonce) {
	for {
		cur := nonceCounter.Load()
		if cur >= uint64(floor) {
			return
		}
		if nonceCounter.CompareAndSwap(cur, uint64(floor)) {
			return
		}
	}
}

// Report is the attribution report ρ a device returns for a conversion. In a
// deployment the histogram and bias flag are secret-shared/encrypted toward
// the MPC/TEE with (Nonce, Epsilon, QuerySensitivity) as authenticated data;
// the simulator carries them in the clear but the aggregation service is the
// only component that reads the payload.
type Report struct {
	// Nonce uniquely identifies the report for replay protection.
	Nonce Nonce
	// Querier is the site the report is destined for.
	Querier events.Site
	// Device records the generating device (used only by simulator
	// metrics; a deployment does not transmit it).
	Device events.DeviceID
	// Histogram is the clipped, padded attribution output.
	Histogram attribution.Histogram
	// BiasFlag is the κ-scaled side-query coordinate (0 when bias
	// measurement is disabled or the report cannot be biased).
	BiasFlag float64
	// Epsilon echoes the requested ε as authenticated data; the
	// aggregation service enforces exactly this parameter.
	Epsilon float64
	// QuerySensitivity echoes the query global sensitivity as
	// authenticated data for noise scaling.
	QuerySensitivity float64
}

// Diagnostics is simulator-side instrumentation emitted next to each report.
// None of it is visible to queriers (budget states must stay hidden under
// IDP); experiments use it to compute ground truth and budget metrics.
// Per-epoch series are window-indexed slices (slot i is epoch FirstEpoch+i)
// rather than maps, so building them costs two allocations instead of one
// map insert per epoch; use LossAt/RelevantAt for epoch-keyed reads.
type Diagnostics struct {
	// FirstEpoch anchors the window-indexed slices below.
	FirstEpoch events.Epoch
	// TrueHistogram is the attribution output had no epoch been denied —
	// the contribution to the unbiased Q(D) that RMSRE is measured
	// against.
	TrueHistogram attribution.Histogram
	// PerEpochLoss[i] is the privacy loss actually consumed from epoch
	// FirstEpoch+i (0 for zero-loss and denied epochs).
	PerEpochLoss []float64
	// DeniedEpochs lists epochs whose budget slot rejected the loss; their
	// events were dropped from attribution.
	DeniedEpochs []events.Epoch
	// RelevantPerEpoch[i] counts relevant events found at epoch
	// FirstEpoch+i (pre-denial).
	RelevantPerEpoch []int
	// Biased reports whether the generated report differs from the true
	// one because of denied epochs.
	Biased bool
}

// LossAt returns the privacy loss consumed from epoch e (0 outside the
// window).
func (d *Diagnostics) LossAt(e events.Epoch) float64 {
	i := int(e - d.FirstEpoch)
	if i < 0 || i >= len(d.PerEpochLoss) {
		return 0
	}
	return d.PerEpochLoss[i]
}

// RelevantAt returns the relevant-event count of epoch e (0 outside the
// window).
func (d *Diagnostics) RelevantAt(e events.Epoch) int {
	i := int(e - d.FirstEpoch)
	if i < 0 || i >= len(d.RelevantPerEpoch) {
		return 0
	}
	return d.RelevantPerEpoch[i]
}

// TotalLoss sums the privacy loss consumed across window epochs, in
// ascending epoch order so the float result is bit-identical run-to-run.
func (d *Diagnostics) TotalLoss() float64 {
	sum := 0.0
	for _, l := range d.PerEpochLoss {
		sum += l
	}
	return sum
}

// ReportStats is the fold-ready scalar summary GenerateReportBatch emits
// in place of a full Diagnostics: exactly the per-conversion values the
// batch and streaming aggregate stages fold, with no retained allocations.
// Every field is derived from the same intermediate state as the
// Diagnostics equivalent, in the same order, so folds over either are
// bit-identical.
type ReportStats struct {
	// TruthTotal is Diagnostics.TrueHistogram.Total(): the conversion's
	// contribution to the unbiased Q(D).
	TruthTotal float64
	// TotalLoss is Diagnostics.TotalLoss(): privacy loss consumed across
	// the window, accumulated in ascending epoch order.
	TotalLoss float64
	// Denied reports whether any window epoch's charge was rejected
	// (len(Diagnostics.DeniedEpochs) > 0).
	Denied bool
	// Biased mirrors Diagnostics.Biased.
	Biased bool
}
