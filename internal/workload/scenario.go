// Package workload enacts the paper's scenario-driven methodology (§6.1):
// advertisers observe conversions, request attribution reports over an
// attribution window with last-touch attribution, accumulate fixed-size
// batches, and run repeated single-advertiser summation queries through the
// trusted aggregation service, with the privacy budget ε calibrated for 5%
// error at 99% confidence. It runs the same workload under the three systems
// the evaluation compares — Cookie Monster, ARA-like (on-device) and
// IPA-like (off-device) — and collects the budget-consumption and
// query-accuracy metrics behind Figs. 4–7.
package workload

import "repro/internal/stream"

// The scenario is stream.Config: one type states it for both front ends,
// and these aliases keep the workload vocabulary.
type (
	// Config parameterizes one workload run.
	Config = stream.Config
	// System selects the budgeting system under test.
	System = stream.System
)

// The three systems the evaluation compares.
const (
	CookieMonster = stream.CookieMonster
	ARALike       = stream.ARALike
	IPALike       = stream.IPALike
)

// Systems lists all three, in the order the paper's figures plot them.
var Systems = stream.Systems

// QueryResult records one summation query's outcome — the one result type
// both front ends fill.
type QueryResult = stream.Result
