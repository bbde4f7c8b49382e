package stream

import (
	"repro/internal/attribution"
	"repro/internal/bias"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
)

// This file holds the scenario constructions that define the content of
// reports and released results. The Engine is their one product caller;
// BuildRequest is exported for the benchmark's probes, which must build the
// requests the engine builds.

// BuildRequest constructs the §6.1 attribution request for one conversion
// (see fillRequest).
func BuildRequest(adv dataset.Advertiser, product events.Sym, conv events.Event,
	eps float64, windowDays, epochDays int, biasSpec *core.BiasSpec) *core.Request {
	req := new(core.Request)
	fillRequest(req, adv, product, conv, eps, windowDays, epochDays, biasSpec)
	return req
}

// fillRequest writes into req the §6.1 attribution request for one
// conversion: last-touch scalar-value attribution over the windowDays window
// ending on the conversion day, with the advertiser's query sensitivity and,
// when biasSpec is non-nil, the Appendix F side query (Kappa ≤ 0 selects the
// paper's default of 10% of the query sensitivity).
func fillRequest(req *core.Request, adv dataset.Advertiser, product events.Sym, conv events.Event,
	eps float64, windowDays, epochDays int, biasSpec *core.BiasSpec) {
	firstDay := conv.Day - windowDays + 1
	first, last := events.EpochWindow(conv.Day, windowDays, epochDays)
	*req = core.Request{
		Querier:    adv.Site.String(),
		FirstEpoch: first,
		LastEpoch:  last,
		Selector: events.WindowSelector{
			Inner:    events.ProductSelector{Advertiser: adv.Site, Product: product},
			FirstDay: firstDay,
			LastDay:  conv.Day,
		},
		Function:          attribution.ScalarValue{Value: conv.Value},
		Epsilon:           eps,
		ReportSensitivity: conv.Value,
		QuerySensitivity:  adv.MaxValue,
		PNorm:             1,
	}
	if biasSpec != nil {
		spec := *biasSpec
		spec.Kappa = kappa(spec.Kappa, adv.MaxValue)
		req.Bias = &spec
	}
}

// kappa is the side query's κ: the spec's, or for one ≤ 0 the paper's
// default of 10% of the query sensitivity Δ.
func kappa(specKappa, maxValue float64) float64 {
	if specKappa <= 0 {
		return 0.1 * maxValue
	}
	return specKappa
}

// biasBound computes the querier-side RMSRE upper bound from one query's
// noisy side-query count (Appendix F), with the request's κ.
func biasBound(biasCount, estimate float64, adv dataset.Advertiser,
	eps float64, batch int, spec *core.BiasSpec, beta float64) float64 {
	bound := bias.Compute(biasCount, estimate, bias.Params{
		Kappa:       kappa(spec.Kappa, adv.MaxValue),
		NoiseStdDev: privacy.NoiseStdDev(adv.MaxValue, eps),
		Beta:        beta,
		DeltaMax:    adv.MaxValue,
		ScaleFloor:  float64(batch) * adv.AvgReportValue,
	})
	return bound.RMSRE
}
