// Package core implements the on-device side of Cookie Monster: the
// per-querier, per-epoch privacy-filter table, the individual-sensitivity
// privacy-loss computation (Thm. 4), and the attribution-report generation
// algorithm of Listing 1 / Alg. 1, including the bias-measurement side query
// of Appendix F. It is the paper's primary contribution.
package core

import (
	"errors"
	"fmt"

	"repro/internal/attribution"
	"repro/internal/events"
)

// Request is the sanitized attribution_request of Listing 1: everything a
// querier provides when it asks a device for an attribution report upon a
// conversion.
type Request struct {
	// Querier names the site requesting the report; filters are
	// maintained per querier, keyed by this name.
	Querier string
	// FirstEpoch and LastEpoch delimit the inclusive attribution window
	// (the `epochs` parameter).
	FirstEpoch, LastEpoch events.Epoch
	// Selector is the relevant-event predicate F_A
	// (`select_relevant_events`).
	Selector events.Selector
	// Function is the attribution policy A (`compute_attribution`).
	Function attribution.Function
	// Epsilon is the requested privacy budget the MPC/TEE will enforce
	// when executing the aggregation query (`requested_epsilon`).
	Epsilon float64
	// ReportSensitivity is the report global sensitivity: the maximum
	// change this device-epoch can make to the report generation output
	// (`report_global_sensitivity`, e.g. $70 in §3.2). The device clips
	// the attribution histogram to enforce it.
	ReportSensitivity float64
	// QuerySensitivity is the query global sensitivity: the maximum
	// across all devices and reports (`query_global_sensitivity`, e.g.
	// $100 in §3.2).
	QuerySensitivity float64
	// PNorm selects the sensitivity norm (1 for Laplace, 2 for
	// Gaussian). The DP theorem is proven for 1.
	PNorm int
	// Bias, when non-nil, requests the Appendix F side query alongside
	// the report.
	Bias *BiasSpec
}

// BiasSpec configures the bias-measurement side query (Appendix F): a
// per-report flag, scaled by Kappa, that counts reports possibly affected by
// an out-of-budget epoch.
type BiasSpec struct {
	// Kappa is the flag's scale κ. The paper's evaluation sets it to 10%
	// of the query's global sensitivity (§6.5).
	Kappa float64
	// LastTouch selects the tighter Thm. 16 flag (an out-of-budget epoch
	// only matters when no later in-budget epoch holds a relevant
	// impression) instead of the generic Thm. 15 flag.
	LastTouch bool
}

// Validate checks the request is well-formed; devices sanitize
// querier-provided parameters before acting on them.
func (r *Request) Validate() error {
	switch {
	case r.Querier == "":
		return errors.New("core: request missing querier")
	case r.LastEpoch < r.FirstEpoch:
		return fmt.Errorf("core: inverted epoch window [%d, %d]", r.FirstEpoch, r.LastEpoch)
	case r.Selector == nil:
		return errors.New("core: request missing selector")
	case r.Function == nil:
		return errors.New("core: request missing attribution function")
	case r.Epsilon <= 0:
		return fmt.Errorf("core: non-positive epsilon %v", r.Epsilon)
	case r.ReportSensitivity < 0:
		return fmt.Errorf("core: negative report sensitivity %v", r.ReportSensitivity)
	case r.QuerySensitivity <= 0:
		return fmt.Errorf("core: non-positive query sensitivity %v", r.QuerySensitivity)
	case r.ReportSensitivity > r.QuerySensitivity*(1+1e-9):
		return fmt.Errorf("core: report sensitivity %v exceeds query sensitivity %v",
			r.ReportSensitivity, r.QuerySensitivity)
	case r.PNorm != 1 && r.PNorm != 2:
		return fmt.Errorf("core: unsupported p-norm %d", r.PNorm)
	case r.Bias != nil && r.Bias.Kappa <= 0:
		return errors.New("core: bias measurement requires positive kappa")
	}
	return nil
}

// WindowSize returns k, the number of epochs in the attribution window.
func (r *Request) WindowSize() int { return int(r.LastEpoch-r.FirstEpoch) + 1 }

// Epochs enumerates the window's epochs, oldest first.
func (r *Request) Epochs() []events.Epoch {
	return events.EpochsIn(r.FirstEpoch, r.LastEpoch)
}
