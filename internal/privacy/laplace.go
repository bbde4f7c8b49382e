package privacy

import "repro/internal/stats"

// LaplaceMechanism is the noising step run by the trusted aggregation
// service (MPC/TEE): it perturbs each coordinate of an aggregate with
// independent Laplace noise of scale Δ/ε, yielding ε-DP for an
// L1-sensitivity-Δ query. The paper's DP theorem (Thm. 1) is stated for
// pure DP with the Laplace mechanism, so this is the only mechanism the
// reproduction needs; the noise interface is kept small enough that a
// Gaussian variant could be slotted in for the L2/p-norm generalization
// mentioned in §3.3.
type LaplaceMechanism struct {
	rng *stats.RNG
}

// NewLaplaceMechanism returns a mechanism drawing noise from rng.
func NewLaplaceMechanism(rng *stats.RNG) *LaplaceMechanism {
	return &LaplaceMechanism{rng: rng}
}

// Scale returns the Laplace scale b = Δ/ε for a query of global
// L1 sensitivity delta at privacy parameter eps. It panics on non-positive
// eps or negative delta.
func Scale(delta, eps float64) float64 {
	if eps <= 0 {
		panic("privacy: non-positive epsilon")
	}
	if delta < 0 {
		panic("privacy: negative sensitivity")
	}
	return delta / eps
}

// NoiseStdDev returns the standard deviation σ = √2·Δ/ε of the noise the
// mechanism adds. Alg. 1 parameterizes reports by σ; ComputeIndividualBudget
// converts back with ε_x = Δ_x·√2/σ (Eq. 4).
func NoiseStdDev(delta, eps float64) float64 {
	return stats.LaplaceStdDev(Scale(delta, eps))
}

// Perturb adds independent Laplace(Δ/ε) noise to every coordinate of sum,
// in place, and returns sum for convenience.
func (m *LaplaceMechanism) Perturb(sum []float64, delta, eps float64) []float64 {
	b := Scale(delta, eps)
	for i := range sum {
		sum[i] += m.rng.Laplace(b)
	}
	return sum
}
