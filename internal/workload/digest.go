package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
)

// CanonicalDigest returns a SHA-256 over a canonical serialization of
// everything the equivalence contract compares: every QueryResult field
// (floats as IEEE-754 bit patterns, NaN normalized) plus the post-run budget
// metrics the experiment harnesses read. Two runs have equal digests exactly
// when the equivalence suite's result and metric comparisons would pass, so
// a committed digest (testdata/golden/) stands in for recomputing the batch
// reference.
func (r *Run) CanonicalDigest() string {
	h := sha256.New()
	for _, res := range r.Results {
		fmt.Fprintf(h, "result|%s|%s|%d|%d|%t|%d|%d|",
			res.Querier, res.Product, res.Index, res.Batch, res.Executed,
			res.DeniedReports, res.BiasedReports)
		writeFloat(h, res.Epsilon)
		writeFloat(h, res.Truth)
		writeFloat(h, res.Estimate)
		writeFloat(h, res.RMSRE)
		writeFloat(h, res.BiasEstimate)
		fmt.Fprintf(h, "%d|%d|", res.FirstEpoch, res.LastEpoch)
		writeFloat(h, res.AvgBudgetAfter)
		io.WriteString(h, "\n")
	}
	avg, max := r.BudgetStats()
	io.WriteString(h, "metrics|")
	writeFloat(h, avg)
	writeFloat(h, max)
	writeFloat(h, r.PopulationAvgBudget())
	writeFloat(h, r.ExecutedFraction())
	fmt.Fprintf(h, "%d|", r.RequestedDeviceEpochs())
	io.WriteString(h, "\npairs|")
	for _, v := range r.PerPairAverages() {
		writeFloat(h, v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeFloat serializes one float bit-exactly. NaN is normalized to a single
// token: hardware NaN payloads are not specified cross-platform, and the
// equivalence comparisons treat all NaNs as equal anyway.
func writeFloat(w io.Writer, v float64) {
	if math.IsNaN(v) {
		io.WriteString(w, "nan|")
		return
	}
	fmt.Fprintf(w, "%016x|", math.Float64bits(v))
}
