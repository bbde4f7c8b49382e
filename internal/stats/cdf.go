package stats

import "sort"

// CDF is an empirical cumulative distribution function over a sample.
// The experiment harnesses use it to regenerate the paper's CDF figures
// (Fig. 5b, 6a, 6b, 6d, 7b).
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from a sample (which it copies and sorts).
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// Quantile returns the q-quantile of the sample (0 ≤ q ≤ 1).
func (c *CDF) Quantile(q float64) float64 {
	return Quantile(c.sorted, q)
}
