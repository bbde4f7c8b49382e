package attribution

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/events"
)

func imps(days ...int) []events.Event {
	out := make([]events.Event, len(days))
	for i, d := range days {
		out[i] = events.Event{
			ID:         events.EventID(i + 1),
			Kind:       events.KindImpression,
			Day:        d,
			Advertiser: events.Intern("nike.com"),
		}
	}
	return out
}

func TestLastTouchCredits(t *testing.T) {
	credits := LastTouch{}.Credits(imps(1, 5, 9), 70)
	if len(credits) != 3 || credits[0] != 0 || credits[1] != 0 || credits[2] != 70 {
		t.Fatalf("last-touch credits = %v", credits)
	}
}

func TestFirstTouchCredits(t *testing.T) {
	credits := FirstTouch{}.Credits(imps(1, 5, 9), 70)
	if credits[0] != 70 || credits[1] != 0 || credits[2] != 0 {
		t.Fatalf("first-touch credits = %v", credits)
	}
}

func TestEqualCreditCredits(t *testing.T) {
	credits := EqualCredit{}.Credits(imps(1, 5), 70)
	if credits[0] != 35 || credits[1] != 35 {
		t.Fatalf("equal-credit credits = %v", credits)
	}
}

func TestLinearDecayCredits(t *testing.T) {
	credits := LinearDecay{}.Credits(imps(1, 5, 9), 60)
	// Weights 1/6, 2/6, 3/6 of 60 → 10, 20, 30.
	if math.Abs(credits[0]-10) > 1e-9 || math.Abs(credits[1]-20) > 1e-9 || math.Abs(credits[2]-30) > 1e-9 {
		t.Fatalf("linear-decay credits = %v", credits)
	}
	// Most recent impression must earn the most.
	if !(credits[2] > credits[1] && credits[1] > credits[0]) {
		t.Fatalf("decay not increasing with recency: %v", credits)
	}
}

func TestAllLogicsEmptyInput(t *testing.T) {
	for _, l := range []Logic{LastTouch{}, FirstTouch{}, EqualCredit{}, LinearDecay{}} {
		if l.Credits(nil, 70) != nil {
			t.Fatalf("%s: empty input must give nil credits", l.Name())
		}
	}
}

func TestAllLogicsConserveValueQuick(t *testing.T) {
	logics := []Logic{LastTouch{}, FirstTouch{}, EqualCredit{}, LinearDecay{}}
	f := func(n uint8, rawValue float64) bool {
		value := math.Mod(math.Abs(rawValue), 1000)
		if math.IsNaN(value) {
			return true
		}
		count := int(n%20) + 1
		days := make([]int, count)
		for i := range days {
			days[i] = i
		}
		for _, l := range logics {
			credits := l.Credits(imps(days...), value)
			if len(credits) != count {
				return false
			}
			sum := 0.0
			for _, c := range credits {
				if c < 0 {
					return false // credits are non-negative
				}
				sum += c
			}
			if math.Abs(sum-value) > 1e-9*(1+value) {
				return false // credits must sum to the value
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftsCredit(t *testing.T) {
	for _, l := range []Logic{LastTouch{}, FirstTouch{}, EqualCredit{}, LinearDecay{}} {
		if !l.ShiftsCredit() {
			t.Fatalf("%s should report credit shifting", l.Name())
		}
	}
}
