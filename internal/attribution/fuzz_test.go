package attribution

import (
	"math"
	"testing"

	"repro/internal/events"
)

// FuzzAttributionLogics decodes arbitrary bytes into an impression list —
// including malformed day orderings the Logic contract says cannot happen —
// plus a conversion value (zero and negative included) and a logic
// selector, and checks the invariants every attribution logic must uphold
// regardless of input shape:
//
//   - never panic, never emit NaN/±Inf for finite inputs;
//   - one credit per impression, nil for an empty list;
//   - credits conserve the value: they sum to value (within float
//     tolerance) and, for non-negative values, each credit stays in
//     [0, value·(1+ε)];
//   - Credits is a pure function: same input, same output, input unchanged.
//
// Report clipping (clip.go) separately bounds what leaves the device, but
// these invariants are what the global-sensitivity argument (Thm. 18)
// assumes of the logics themselves.
func FuzzAttributionLogics(f *testing.F) {
	// Seeds: well-formed ascending days; duplicate days; strictly
	// descending days (malformed); a huge day gap (the Exp2 overflow
	// regime); zero and negative values.
	f.Add(uint8(0), float64(70), []byte{1, 2, 5, 9})
	f.Add(uint8(3), float64(70), []byte{9, 5, 2, 1})
	f.Add(uint8(5), float64(1), []byte{0, 0, 0})
	f.Add(uint8(4), float64(0), []byte{200, 1})
	f.Add(uint8(2), float64(-3.5), []byte{1, 255, 1})
	f.Add(uint8(1), float64(0.25), []byte{})
	// Steeply descending days under the short half-life: before TimeDecay
	// anchored its ages at the maximum day, this input overflowed Exp2 to
	// +Inf and returned all-NaN credits.
	f.Add(uint8(7), float64(70), make([]byte, 40))

	logics := []Logic{
		LastTouch{},
		FirstTouch{},
		EqualCredit{},
		LinearDecay{},
		NewPositionBased(0.4, 0.4),
		NewPositionBased(0, 0),
		NewTimeDecay(7),
		NewTimeDecay(0.5),
	}

	f.Fuzz(func(t *testing.T, which uint8, value float64, days []byte) {
		if math.IsNaN(value) || math.IsInf(value, 0) {
			t.Skip("logics are only specified for finite values")
		}
		logic := logics[int(which)%len(logics)]

		// Each input byte becomes one impression; consecutive bytes chain
		// into day deltas with sign flips, so fuzzing explores ascending,
		// duplicate, descending, and wildly out-of-order day sequences.
		if len(days) > 64 {
			days = days[:64]
		}
		imps := make([]events.Event, len(days))
		day := 0
		for i, b := range days {
			delta := int(b) - 100
			day += delta
			imps[i] = events.Event{
				ID:         events.EventID(i + 1),
				Kind:       events.KindImpression,
				Device:     7,
				Day:        day,
				Publisher:  events.Intern("pub.example"),
				Advertiser: events.Intern("adv.example"),
				Campaign:   events.Intern("c"),
			}
		}
		before := make([]events.Event, len(imps))
		copy(before, imps)

		credits := logic.Credits(imps, value)

		if len(imps) == 0 {
			if credits != nil {
				t.Fatalf("%s: non-nil credits %v for empty impression list", logic.Name(), credits)
			}
			return
		}
		if len(credits) != len(imps) {
			t.Fatalf("%s: %d credits for %d impressions", logic.Name(), len(credits), len(imps))
		}
		for i := range imps {
			if imps[i] != before[i] {
				t.Fatalf("%s: mutated impression %d", logic.Name(), i)
			}
		}

		const tol = 1e-9
		sum := 0.0
		absBound := math.Abs(value) * (1 + tol)
		for i, c := range credits {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("%s: credit %d is %v (days %v, value %v)", logic.Name(), i, c, days, value)
			}
			if value >= 0 && (c < 0 || c > absBound) {
				t.Fatalf("%s: credit %d = %v outside [0, %v]", logic.Name(), i, c, value)
			}
			sum += c
		}
		if math.Abs(sum-value) > tol*math.Max(1, math.Abs(value)) {
			t.Fatalf("%s: credits sum to %v, want %v", logic.Name(), sum, value)
		}

		// Purity: a second evaluation is bit-identical.
		again := logic.Credits(imps, value)
		for i := range credits {
			if credits[i] != again[i] {
				t.Fatalf("%s: non-deterministic credit %d: %v then %v",
					logic.Name(), i, credits[i], again[i])
			}
		}
	})
}
