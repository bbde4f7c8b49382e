package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// digestBlock is how much serialization CanonicalDigest buffers between
// writes to the hasher.
const digestBlock = 32 << 10

// CanonicalDigest returns a SHA-256 over a canonical serialization of
// everything the equivalence contract compares: every QueryResult field
// (floats as IEEE-754 bit patterns, NaN normalized) plus the post-run budget
// metrics the experiment harnesses read. Two runs have equal digests exactly
// when the equivalence suite's result and metric comparisons would pass, so
// a committed digest (testdata/golden/) stands in for recomputing the batch
// reference.
func (r *Run) CanonicalDigest() string {
	// The serialization accumulates in one reused buffer handed to the
	// hasher a block at a time: PerPairAverages alone is millions of
	// floats, and a formatted write per float straight into SHA-256 cost
	// more than the run being digested.
	h := sha256.New()
	buf := make([]byte, 0, digestBlock+256)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	for _, res := range r.Results {
		buf = fmt.Appendf(buf, "result|%s|%s|%d|%d|%t|%d|%d|",
			res.Querier, res.Product, res.Index, res.Batch, res.Executed,
			res.DeniedReports, res.BiasedReports)
		buf = appendFloat(buf, res.Epsilon)
		buf = appendFloat(buf, res.Truth)
		buf = appendFloat(buf, res.Estimate)
		buf = appendFloat(buf, res.RMSRE)
		buf = appendFloat(buf, res.BiasEstimate)
		buf = fmt.Appendf(buf, "%d|%d|", res.FirstEpoch, res.LastEpoch)
		buf = appendFloat(buf, res.AvgBudgetAfter)
		buf = append(buf, '\n')
		if len(buf) >= digestBlock {
			flush()
		}
	}
	// BudgetStats, RequestedDeviceEpochs and PerPairAverages from one pass
	// over the fleet.
	st := r.walkRequested(true)
	buf = append(buf, "metrics|"...)
	buf = appendFloat(buf, st.avg)
	buf = appendFloat(buf, st.max)
	buf = appendFloat(buf, r.PopulationAvgBudget())
	buf = appendFloat(buf, r.ExecutedFraction())
	buf = fmt.Appendf(buf, "%d|", st.n)
	buf = append(buf, "\npairs|"...)
	for _, v := range st.pairs {
		buf = appendFloat(buf, v)
		if len(buf) >= digestBlock {
			flush()
		}
	}
	flush()
	return hex.EncodeToString(h.Sum(nil))
}

// appendFloat serializes one float bit-exactly, as %016x of its IEEE-754 bit
// pattern. NaN is normalized to a single token: hardware NaN payloads are not
// specified cross-platform, and the equivalence comparisons treat all NaNs as
// equal anyway.
func appendFloat(buf []byte, v float64) []byte {
	if math.IsNaN(v) {
		return append(buf, "nan|"...)
	}
	var bits [8]byte
	binary.BigEndian.PutUint64(bits[:], math.Float64bits(v))
	buf = hex.AppendEncode(buf, bits[:])
	return append(buf, '|')
}
