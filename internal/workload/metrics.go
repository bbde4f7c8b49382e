package workload

import (
	"math"

	"repro/internal/core"
	"repro/internal/events"
)

// fleetStats is what one walk over the fleet's requested device-epochs
// yields: BudgetStats' average and maximum (both 0 when ε^G is 0 or nothing
// was requested), RequestedDeviceEpochs' count and, when asked for,
// PerPairAverages.
type fleetStats struct {
	avg, max float64
	n        int
	pairs    []float64
}

// walkRequested visits every device-epoch some report window covered, in
// (device, epoch) order, once. A device-epoch's loss is the sum, over the
// queriers that requested it in name order, of the device's own filter
// (on-device systems) or of the central ledger's slot, which every device is
// charged alike (IPA-like — the coarseness of population-level accounting,
// Thm. 3). With pairs set, an on-device walk also sums each advertiser's
// consumption on each device epoch by ascending epoch — the order
// privacy.Ledger.RangeTotals adds a lane in — while an IPA-like run reads
// its per-pair values off the central ledger. Every float accumulates in a
// fixed order, so the results are deterministic run-to-run; CanonicalDigest,
// which needs all of them, walks the fleet once.
func (r *Run) walkRequested(pairs bool) fleetStats {
	var st fleetStats
	epsG, sum := r.Config.EpsilonG, 0.0
	central := r.Config.System == IPALike
	advs := r.Meta.Advertisers
	epochs := float64(r.EpochSpan())
	if pairs && central {
		st.pairs = r.centralPairs()
	}
	// slot indexes each advertiser's site (the ledger's querier key) in
	// totals, the walked device's per-advertiser consumption; nil unless an
	// on-device walk wants pairs.
	var slot map[events.Site]int
	var totals []float64
	if pairs && !central && epochs > 0 && epsG != 0 {
		slot = make(map[events.Site]int, len(advs))
		for i, adv := range advs {
			slot[adv.Site] = i
		}
		totals = make([]float64, len(advs))
		st.pairs = make([]float64, 0, r.Meta.PopulationDevices*len(advs))
	}
	r.Fleet.Range(func(d *core.Device) bool {
		clear(totals)
		d.RangeRequested(func(e events.Epoch, queriers []events.Site, consumed []float64) {
			loss := 0.0
			for i, q := range queriers {
				if central {
					loss += r.Central.Consumed(q, int64(e))
					continue
				}
				loss += consumed[i]
				if j, ok := slot[q]; ok {
					totals[j] += consumed[i]
				}
			}
			st.n++
			if epsG == 0 {
				return
			}
			loss /= epsG
			sum += loss
			if loss > st.max {
				st.max = loss
			}
		})
		if slot != nil {
			for _, adv := range advs {
				st.pairs = append(st.pairs, totals[slot[adv.Site]]/epochs/epsG)
			}
		}
		return true
	})
	if slot != nil {
		// Silent devices, which no window reached, consumed nothing.
		silent := r.Meta.PopulationDevices - r.Fleet.Len()
		for i := 0; i < silent*len(advs); i++ {
			st.pairs = append(st.pairs, 0)
		}
	}
	if st.n > 0 {
		st.avg = sum / float64(st.n)
	}
	return st
}

// BudgetStats returns the average and maximum budget consumption across all
// device-epochs requested through the run's queries — the Fig. 4 metrics.
// A device-epoch requested by several queriers contributes the sum of its
// per-querier losses, and the values are normalized by ε^G so they read as
// "fraction of the epoch's budget spent".
func (r *Run) BudgetStats() (avg, max float64) {
	st := r.walkRequested(false)
	return st.avg, st.max
}

// EpochSpan returns the number of epochs any query window can touch
// (including the pre-trace epochs early attribution windows reach into).
func (r *Run) EpochSpan() int { return int(r.LastSpanEpoch-r.FirstSpanEpoch) + 1 }

// PopulationAvgBudget returns the average normalized budget consumption
// over *all* device-epochs in the population (devices × reachable epochs) —
// the fixed-denominator metric of Fig. 5a. It is monotone over the run
// because filters only fill.
func (r *Run) PopulationAvgBudget() float64 {
	denom := float64(r.Meta.PopulationDevices) * float64(r.EpochSpan()) * r.Config.EpsilonG
	if denom == 0 {
		return 0
	}
	return r.TotalConsumed / denom
}

// CumulativeAvgBudget returns, after each query in submission order, the
// population-average normalized budget consumption — the Fig. 5a series.
func (r *Run) CumulativeAvgBudget() []float64 {
	out := make([]float64, len(r.Results))
	for i := range r.Results {
		out[i] = r.Results[i].AvgBudgetAfter
	}
	return out
}

// RMSREs returns the realized RMSRE of every executed query.
func (r *Run) RMSREs() []float64 {
	var out []float64
	for _, res := range r.Results {
		if res.Executed && !math.IsNaN(res.RMSRE) {
			out = append(out, res.RMSRE)
		}
	}
	return out
}

// ExecutedFraction returns the fraction of queries that executed (1 for
// on-device systems; below 1 for IPA-like once budget depletes).
func (r *Run) ExecutedFraction() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	n := 0
	for _, res := range r.Results {
		if res.Executed {
			n++
		}
	}
	return float64(n) / float64(len(r.Results))
}

// PerPairAverages returns one value per (device, advertiser) pair: the
// average normalized budget consumption across all trace epochs within that
// advertiser's filters on that device — the Fig. 6a/6d metric. Devices that
// never consumed anything contribute zeros (for on-device systems) or the
// central per-epoch average (for IPA-like), exactly as the population-wide
// CDF requires.
func (r *Run) PerPairAverages() []float64 {
	if r.Config.System == IPALike {
		return r.centralPairs()
	}
	return r.walkRequested(true).pairs
}

// centralPairs is PerPairAverages for an IPA-like run, read off the central
// ledger without a fleet walk: every device carries each advertiser's
// central per-epoch average.
func (r *Run) centralPairs() []float64 {
	epochs := r.EpochSpan()
	if epochs == 0 || r.Config.EpsilonG == 0 {
		return nil
	}
	advs := r.Meta.Advertisers
	population := r.Meta.PopulationDevices
	out := make([]float64, 0, population*len(advs))
	totals := r.centralTotals()
	for _, adv := range advs {
		avg := totals[adv.Site] / float64(epochs) / r.Config.EpsilonG
		for d := 0; d < population; d++ {
			out = append(out, avg)
		}
	}
	return out
}

// ConsumedByQuerier returns each querier's total consumed privacy loss
// summed across the device fleet — the per-querier budget footprint the
// hostile-traffic reports break out. Devices accumulate in ascending ID
// order and each device's epochs in ascending epoch order, so the float
// sums are deterministic run-to-run. For IPA-like runs the central ledger's
// consumption is charged to every device in the population, mirroring
// PerPairAverages.
func (r *Run) ConsumedByQuerier() map[events.Site]float64 {
	out := make(map[events.Site]float64, len(r.Meta.Advertisers))
	if r.Config.System == IPALike {
		totals := r.centralTotals()
		for _, adv := range r.Meta.Advertisers {
			out[adv.Site] = totals[adv.Site] * float64(r.Meta.PopulationDevices)
		}
		return out
	}
	r.Fleet.Range(func(d *core.Device) bool {
		for q, total := range d.ConsumedByQuerier() {
			out[q] += total
		}
		return true
	})
	return out
}

// centralTotals returns each querier's consumption from the central ledger,
// summed over its epochs in ascending order: what an IPA-like run charged
// every device in the population. Query windows lie in the run's epoch span
// (restore refuses a slot outside it), so this is the sum over the span.
func (r *Run) centralTotals() map[events.Site]float64 {
	totals := make(map[events.Site]float64, r.Central.NumQueriers())
	r.Central.RangeTotals(func(q events.Site, total float64) { totals[q] = total })
	return totals
}

// BudgetDenials returns the total number of budget charges denied across the
// device fleet — how often traffic (honest or hostile) ran into filter
// capacities. Always 0 for IPA-like runs, which reject whole queries at the
// central ledger instead of denying per-device charges.
func (r *Run) BudgetDenials() uint64 {
	if r.Config.System == IPALike {
		return 0
	}
	var n uint64
	r.Fleet.Range(func(d *core.Device) bool {
		n += d.BudgetDenials()
		return true
	})
	return n
}

// ActiveDevices returns the number of devices some query's report window
// touched. For on-device systems those are the devices that generated at
// least one report; an IPA-like run generates none, and counts the devices
// its queries' conversions came from.
func (r *Run) ActiveDevices() int { return r.Fleet.Len() }

// RequestedDeviceEpochs returns the number of distinct device-epochs touched
// by at least one query.
func (r *Run) RequestedDeviceEpochs() int { return r.walkRequested(false).n }
