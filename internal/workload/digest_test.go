package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// refDigest is CanonicalDigest as it was first written — one formatted write
// per field straight into the hasher — kept as the reference the buffered
// serialization must match byte for byte.
func refDigest(r *Run) string {
	h := sha256.New()
	for _, res := range r.Results {
		fmt.Fprintf(h, "result|%s|%s|%d|%d|%t|%d|%d|",
			res.Querier, res.Product, res.Index, res.Batch, res.Executed,
			res.DeniedReports, res.BiasedReports)
		refWriteFloat(h, res.Epsilon)
		refWriteFloat(h, res.Truth)
		refWriteFloat(h, res.Estimate)
		refWriteFloat(h, res.RMSRE)
		refWriteFloat(h, res.BiasEstimate)
		fmt.Fprintf(h, "%d|%d|", res.FirstEpoch, res.LastEpoch)
		refWriteFloat(h, res.AvgBudgetAfter)
		io.WriteString(h, "\n")
	}
	avg, max := r.BudgetStats()
	io.WriteString(h, "metrics|")
	refWriteFloat(h, avg)
	refWriteFloat(h, max)
	refWriteFloat(h, r.PopulationAvgBudget())
	refWriteFloat(h, r.ExecutedFraction())
	fmt.Fprintf(h, "%d|", r.RequestedDeviceEpochs())
	io.WriteString(h, "\npairs|")
	for _, v := range refPerPairAverages(r) {
		refWriteFloat(h, v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// refPerPairAverages is PerPairAverages as it was first written, with a walk
// of its own: each device's per-querier totals read once from its ledger
// (core.Device.ConsumedByQuerier), then zeros for silent devices. The digest
// folds the per-pair sums into its one walk over requested epochs; this keeps
// the ledger's own per-lane sums as their reference.
func refPerPairAverages(r *Run) []float64 {
	if r.Config.System == IPALike {
		return r.centralPairs()
	}
	epochs := r.EpochSpan()
	if epochs == 0 || r.Config.EpsilonG == 0 {
		return nil
	}
	advs := r.Config.Dataset.Advertisers
	var out []float64
	r.Fleet.Range(func(d *core.Device) bool {
		perQuerier := d.ConsumedByQuerier()
		for _, adv := range advs {
			out = append(out, perQuerier[adv.Site]/float64(epochs)/r.Config.EpsilonG)
		}
		return true
	})
	for i := 0; i < (r.Config.Dataset.PopulationDevices-r.Fleet.Len())*len(advs); i++ {
		out = append(out, 0)
	}
	return out
}

func refWriteFloat(w io.Writer, v float64) {
	if math.IsNaN(v) {
		io.WriteString(w, "nan|")
		return
	}
	fmt.Fprintf(w, "%016x|", math.Float64bits(v))
}

// TestAppendFloatMatchesFmt holds the digest's float token to the fmt
// rendering over the edge values and a few thousand random bit patterns
// (NaNs of every payload among them).
func TestAppendFloatMatchesFmt(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest denormal
		math.MaxFloat64, -math.MaxFloat64, math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000abc), // negative NaN with a payload
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		bits := rng.Uint64()
		if i%8 == 0 {
			bits |= 0x7ff0000000000000 // force the exponent: NaN or ±Inf
		}
		vals = append(vals, math.Float64frombits(bits))
	}
	var want bytes.Buffer
	var got []byte
	for _, v := range vals {
		want.Reset()
		refWriteFloat(&want, v)
		got = appendFloat(got[:0], v)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%016x: appendFloat %q, fmt %q", math.Float64bits(v), got, want.Bytes())
		}
	}
}

// TestCanonicalDigestMatchesReference digests whole runs both ways: the
// multi-advertiser Criteo workload on-device with the bias side query (its
// per-pair section spans many hasher blocks), and an IPA-like run under a
// budget tight enough to reject some queries (NaN RMSREs, central per-pair
// averages).
func TestCanonicalDigestMatchesReference(t *testing.T) {
	ccfg := dataset.DefaultCriteoConfig()
	ccfg.Advertisers = 30
	ccfg.Users = 3000
	ccfg.TotalConversions = 12000
	ccfg.MinBatch = 150
	criteo, err := dataset.Criteo(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"criteo-cm-bias": {Dataset: criteo, System: CookieMonster, EpsilonG: 2, Seed: 11, Bias: &core.BiasSpec{LastTouch: true}},
		"ipa-like":       {Dataset: smallMicro(t, 0.5, 0.5), System: IPALike, EpsilonG: 2, FixedEpsilon: 0.5, Seed: 7},
	} {
		r := execute(t, cfg)
		if f := r.ExecutedFraction(); name == "ipa-like" && (f == 0 || f == 1) {
			t.Fatalf("%s: executed fraction %v; want both executed and rejected (NaN) queries", name, f)
		}
		if n := len(r.PerPairAverages()); n == 0 || (name != "ipa-like" && 17*n < 4*digestBlock) {
			t.Fatalf("%s: %d per-pair averages; too few to cross the hasher blocks", name, n)
		}
		if got, want := r.CanonicalDigest(), refDigest(r); got != want {
			t.Fatalf("%s: digest %s, reference %s", name, got, want)
		}
	}
}
