package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.Len() != 0 || c.At(5) != 0 {
		t.Fatal("empty CDF misbehaves")
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Fatalf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFQuantileAgrees(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	c := NewCDF(xs)
	if got := c.Quantile(0.5); got != 5 {
		t.Fatalf("median = %v", got)
	}
}

func TestCDFDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	NewCDF(xs)
	if xs[0] != 3 {
		t.Fatal("NewCDF sorted the caller's slice")
	}
}

func TestCDFMonotoneQuick(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c := NewCDF(xs)
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
