package stats

import "math"

// Laplace returns a variate from the Laplace (double exponential)
// distribution with mean 0 and scale b. The Laplace mechanism adds this
// noise to query answers; scale b = Δ/ε yields ε-DP for an L1-sensitivity-Δ
// query.
func (r *RNG) Laplace(b float64) float64 {
	if b < 0 {
		panic("stats: Laplace with negative scale")
	}
	// Inverse-CDF sampling: u uniform on (-1/2, 1/2),
	// X = -b·sgn(u)·ln(1 - 2|u|).
	u := r.Float64() - 0.5
	if u >= 0 {
		return -b * math.Log(1-2*u)
	}
	return b * math.Log(1+2*u)
}

// LaplaceStdDev converts a Laplace scale b to a standard deviation (σ = b√2).
func LaplaceStdDev(b float64) float64 { return b * math.Sqrt2 }

// Poisson returns a variate from the Poisson distribution with the given
// mean, via Knuth's method for small means and a normal approximation
// (rounded, clamped at 0) for large ones. Dataset generators use it to draw
// per-day impression counts.
func (r *RNG) Poisson(mean float64) int {
	if mean < 0 {
		panic("stats: Poisson with negative mean")
	}
	if mean == 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := math.Round(r.Normal(mean, math.Sqrt(mean)))
	if n < 0 {
		return 0
	}
	return int(n)
}

// Normal returns a Gaussian variate with the given mean and standard
// deviation (Box–Muller; one variate per call to keep the stream simple and
// deterministic).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Zipf returns a variate in [1, n] from a Zipf distribution with exponent s,
// by inverse-CDF over the precomputed normalization. The Criteo-like dataset
// generator uses it for heavy-tailed advertiser sizes.
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes a Zipf(n, s) sampler. It panics if n <= 0 or s <= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 || s <= 0 {
		panic("stats: NewZipf requires n > 0 and s > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws a rank in [1, len(cdf)]; rank 1 is the most probable.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// LogNormal returns a variate exp(Normal(mu, sigma)). Used to draw
// conversion values with a realistic right-skewed shape.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}
