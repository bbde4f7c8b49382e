package stats

import (
	"math"
	"testing"
)

func TestLaplaceMoments(t *testing.T) {
	r := NewRNG(100)
	const b = 2.5
	const n = 300000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Laplace(b)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Laplace mean %v not near 0", mean)
	}
	// Var = 2b².
	if want := 2 * b * b; math.Abs(variance-want)/want > 0.05 {
		t.Fatalf("Laplace variance %v, want ~%v", variance, want)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	r := NewRNG(101)
	for i := 0; i < 100; i++ {
		if x := r.Laplace(0); x != 0 {
			t.Fatalf("Laplace(0) = %v, want 0", x)
		}
	}
}

func TestLaplaceNegativeScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Laplace(-1) did not panic")
		}
	}()
	NewRNG(1).Laplace(-1)
}

func TestLaplaceTailBound(t *testing.T) {
	// P(|X| > b·ln(1/β)) = β for Laplace(b): check empirically at β=0.01.
	r := NewRNG(102)
	const b = 1.0
	const beta = 0.01
	thresh := b * math.Log(1/beta)
	const n = 200000
	exceed := 0
	for i := 0; i < n; i++ {
		if math.Abs(r.Laplace(b)) > thresh {
			exceed++
		}
	}
	frac := float64(exceed) / n
	if frac > 2*beta || frac < beta/2 {
		t.Fatalf("tail fraction %v, want ~%v", frac, beta)
	}
}

// Exponential returns a variate from the exponential distribution with the
// given mean.
func (r *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exponential with non-positive mean")
	}
	return -mean * math.Log(1-r.Float64())
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(103)
	const mean = 3.0
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.Exponential(mean)
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
		sum += x
	}
	if got := sum / n; math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("exponential mean %v, want ~%v", got, mean)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(104)
	for _, mean := range []float64{0.1, 1, 5, 50} {
		const n = 100000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.01 {
			t.Fatalf("Poisson(%v) mean %v", mean, got)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	r := NewRNG(105)
	if r.Poisson(0) != 0 {
		t.Fatal("Poisson(0) != 0")
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(106)
	const mu, sigma = 4.0, 2.0
	const n = 300000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(mu, sigma)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-mu) > 0.03 {
		t.Fatalf("normal mean %v", mean)
	}
	if want := sigma * sigma; math.Abs(variance-want)/want > 0.03 {
		t.Fatalf("normal variance %v, want ~%v", variance, want)
	}
}

func TestZipfRange(t *testing.T) {
	z := NewZipf(100, 1.2)
	r := NewRNG(107)
	for i := 0; i < 10000; i++ {
		k := z.Sample(r)
		if k < 1 || k > 100 {
			t.Fatalf("Zipf sample %d out of range", k)
		}
	}
}

func TestZipfMonotoneFrequencies(t *testing.T) {
	z := NewZipf(10, 1.5)
	r := NewRNG(108)
	counts := make([]int, 11)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	// Rank 1 must dominate rank 2, which must dominate rank 5.
	if !(counts[1] > counts[2] && counts[2] > counts[5]) {
		t.Fatalf("Zipf frequencies not decreasing: %v", counts[1:])
	}
}

func TestZipfPanicsOnBadParams(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-1, 1}, {5, 0}, {5, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipf(%d,%v) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(tc.n, tc.s)
		}()
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(109)
	for i := 0; i < 10000; i++ {
		if x := r.LogNormal(0, 1); x <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", x)
		}
	}
}
