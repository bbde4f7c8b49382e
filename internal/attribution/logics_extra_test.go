package attribution

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/events"
)

// PositionBased is the U-shaped industry policy: the first and last
// impressions each receive FirstWeight and LastWeight of the value, and the
// remainder is split evenly among the middle impressions. The common 40/20/40
// configuration is NewPositionBased(0.4, 0.4).
type PositionBased struct {
	// FirstWeight and LastWeight are the endpoint shares; they must be
	// non-negative and sum to at most 1.
	FirstWeight, LastWeight float64
}

// NewPositionBased returns a validated position-based logic. It panics on
// negative weights or weights summing above 1.
func NewPositionBased(first, last float64) PositionBased {
	if first < 0 || last < 0 || first+last > 1+1e-12 {
		panic("attribution: invalid position-based weights")
	}
	return PositionBased{FirstWeight: first, LastWeight: last}
}

// Credits implements Logic.
func (p PositionBased) Credits(imps []events.Event, value float64) []float64 {
	n := len(imps)
	if n == 0 {
		return nil
	}
	credits := make([]float64, n)
	switch n {
	case 1:
		credits[0] = value
	case 2:
		// No middle: endpoints share proportionally to their weights.
		total := p.FirstWeight + p.LastWeight
		if total == 0 {
			credits[0] = value / 2
			credits[1] = value / 2
		} else {
			credits[0] = value * p.FirstWeight / total
			credits[1] = value * p.LastWeight / total
		}
	default:
		credits[0] = value * p.FirstWeight
		credits[n-1] = value * p.LastWeight
		middle := value * (1 - p.FirstWeight - p.LastWeight) / float64(n-2)
		for i := 1; i < n-1; i++ {
			credits[i] = middle
		}
	}
	return credits
}

// Name implements Logic.
func (PositionBased) Name() string { return "position-based" }

// ShiftsCredit implements Logic.
func (PositionBased) ShiftsCredit() bool { return true }

// TimeDecay weights impressions by exponential recency relative to the
// *most recent* impression: an impression h half-lives older than the newest
// one receives 2^−h of its weight before normalization. This is the policy
// ad platforms call "time decay" (7-day half-life is the common default).
type TimeDecay struct {
	// HalfLifeDays is the decay half-life in days (> 0).
	HalfLifeDays float64
}

// NewTimeDecay returns a validated time-decay logic.
func NewTimeDecay(halfLifeDays float64) TimeDecay {
	if halfLifeDays <= 0 {
		panic("attribution: non-positive half-life")
	}
	return TimeDecay{HalfLifeDays: halfLifeDays}
}

// Credits implements Logic.
func (d TimeDecay) Credits(imps []events.Event, value float64) []float64 {
	n := len(imps)
	if n == 0 {
		return nil
	}
	// The anchor is the maximum day, not imps[n-1]: for the documented
	// ascending-order input they coincide, but an out-of-order list would
	// otherwise produce negative ages, overflow Exp2 to +Inf, and turn
	// every credit into NaN (Inf/Inf). Anchoring at the maximum keeps all
	// ages ≥ 0, so weights stay in (0, 1] and the total is ≥ 1.
	newest := imps[0].Day
	for _, imp := range imps[1:] {
		if imp.Day > newest {
			newest = imp.Day
		}
	}
	weights := make([]float64, n)
	total := 0.0
	for i, imp := range imps {
		age := float64(newest - imp.Day)
		weights[i] = math.Exp2(-age / d.HalfLifeDays)
		total += weights[i]
	}
	credits := make([]float64, n)
	for i := range credits {
		credits[i] = value * weights[i] / total
	}
	return credits
}

// Name implements Logic.
func (TimeDecay) Name() string { return "time-decay" }

// ShiftsCredit implements Logic.
func (TimeDecay) ShiftsCredit() bool { return true }

func TestPositionBased402040(t *testing.T) {
	p := NewPositionBased(0.4, 0.4)
	credits := p.Credits(imps(1, 5, 9, 12), 100)
	// 40 / 10 / 10 / 40.
	want := []float64{40, 10, 10, 40}
	for i := range want {
		if math.Abs(credits[i]-want[i]) > 1e-9 {
			t.Fatalf("credits = %v, want %v", credits, want)
		}
	}
}

func TestPositionBasedSmallCounts(t *testing.T) {
	p := NewPositionBased(0.4, 0.4)
	if c := p.Credits(imps(3), 100); c[0] != 100 {
		t.Fatalf("single impression credits = %v", c)
	}
	c := p.Credits(imps(3, 8), 100)
	if math.Abs(c[0]-50) > 1e-9 || math.Abs(c[1]-50) > 1e-9 {
		t.Fatalf("two-impression credits = %v", c)
	}
	// Asymmetric endpoints share proportionally.
	q := NewPositionBased(0.3, 0.6)
	c = q.Credits(imps(3, 8), 90)
	if math.Abs(c[0]-30) > 1e-9 || math.Abs(c[1]-60) > 1e-9 {
		t.Fatalf("asymmetric two-impression credits = %v", c)
	}
}

func TestPositionBasedZeroEndpoints(t *testing.T) {
	p := NewPositionBased(0, 0)
	c := p.Credits(imps(1, 2), 10)
	if c[0] != 5 || c[1] != 5 {
		t.Fatalf("zero-endpoint credits = %v", c)
	}
}

func TestPositionBasedPanics(t *testing.T) {
	for _, tc := range [][2]float64{{-0.1, 0.4}, {0.4, -0.1}, {0.6, 0.6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("weights %v did not panic", tc)
				}
			}()
			NewPositionBased(tc[0], tc[1])
		}()
	}
}

func TestTimeDecayHalving(t *testing.T) {
	d := NewTimeDecay(7)
	// Two impressions exactly one half-life apart: 1/3 vs 2/3.
	credits := d.Credits(imps(0, 7), 90)
	if math.Abs(credits[0]-30) > 1e-9 || math.Abs(credits[1]-60) > 1e-9 {
		t.Fatalf("credits = %v, want [30 60]", credits)
	}
}

func TestTimeDecaySameDayUniform(t *testing.T) {
	d := NewTimeDecay(7)
	credits := d.Credits(imps(5, 5, 5), 90)
	for _, c := range credits {
		if math.Abs(c-30) > 1e-9 {
			t.Fatalf("same-day credits = %v", credits)
		}
	}
}

func TestTimeDecayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero half-life did not panic")
		}
	}()
	NewTimeDecay(0)
}

func TestExtraLogicsConserveValueQuick(t *testing.T) {
	logics := []Logic{NewPositionBased(0.4, 0.4), NewTimeDecay(7), NewPositionBased(0.1, 0.2)}
	f := func(dayBytes []uint8, rawValue float64) bool {
		value := math.Mod(math.Abs(rawValue), 1000)
		if math.IsNaN(value) || len(dayBytes) == 0 {
			return true
		}
		days := make([]int, len(dayBytes))
		for i, b := range dayBytes {
			days[i] = int(b)
		}
		// Credits expect time order.
		for i := 1; i < len(days); i++ {
			if days[i] < days[i-1] {
				days[i] = days[i-1]
			}
		}
		for _, l := range logics {
			credits := l.Credits(imps(days...), value)
			sum := 0.0
			for _, c := range credits {
				if c < 0 {
					return false
				}
				sum += c
			}
			if math.Abs(sum-value) > 1e-9*(1+value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeDecayRecencyMonotoneQuick(t *testing.T) {
	d := NewTimeDecay(7)
	f := func(gaps []uint8) bool {
		if len(gaps) == 0 {
			return true
		}
		days := make([]int, len(gaps))
		acc := 0
		for i, g := range gaps {
			acc += int(g % 10)
			days[i] = acc
		}
		credits := d.Credits(imps(days...), 100)
		for i := 1; i < len(credits); i++ {
			if credits[i] < credits[i-1]-1e-9 {
				return false // newer must earn at least as much
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
