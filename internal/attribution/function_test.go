package attribution

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/events"
)

// epochsOf builds per-epoch event slices from day lists; nil entries model
// empty (or budget-denied) epochs.
func epochsOf(dayLists ...[]int) [][]events.Event {
	out := make([][]events.Event, len(dayLists))
	id := events.EventID(1)
	for i, days := range dayLists {
		for _, d := range days {
			out[i] = append(out[i], events.Event{
				ID:         id,
				Kind:       events.KindImpression,
				Day:        d,
				Advertiser: events.Intern("nike.com"),
			})
			id++
		}
	}
	return out
}

func TestSlotsPaperExample(t *testing.T) {
	// §3.2: impressions I₁@e1, I₂@e2, none in e3, conversion in e4.
	// e1 is budget-denied (nil), so only I₂ remains; with m=2 and
	// last-touch the report is {(I₂,70),(0,0)}.
	fn := Slots{Logic: LastTouch{}, MaxImpressions: 2, Value: 70}
	epochs := epochsOf(nil, []int{8}, nil, nil) // e1 denied→nil, I₂ on day 8
	h := fn.Attribute(epochs)
	if len(h) != 2 || h[0] != 70 || h[1] != 0 {
		t.Fatalf("report = %v, want [70 0]", h)
	}
}

func TestSlotsTwoImpressions(t *testing.T) {
	fn := Slots{Logic: EqualCredit{}, MaxImpressions: 2, Value: 70}
	epochs := epochsOf([]int{1}, []int{8})
	h := fn.Attribute(epochs)
	if h[0] != 35 || h[1] != 35 {
		t.Fatalf("report = %v, want [35 35]", h)
	}
}

func TestSlotsNullReportShape(t *testing.T) {
	fn := Slots{Logic: LastTouch{}, MaxImpressions: 2, Value: 70}
	h := fn.Attribute(nil)
	if len(h) != 2 || !h.IsZero() {
		t.Fatalf("null report = %v, want zero vector of dim 2", h)
	}
}

func TestSlotsTruncatesToMostRecent(t *testing.T) {
	fn := Slots{Logic: EqualCredit{}, MaxImpressions: 2, Value: 60}
	epochs := epochsOf([]int{1, 2, 3}) // three impressions, two slots
	h := fn.Attribute(epochs)
	// Only the two most recent (days 2, 3) participate: 30 each; slot 0
	// is the most recent.
	if h[0] != 30 || h[1] != 30 {
		t.Fatalf("report = %v", h)
	}
}

func TestSlotsMostRecentFirst(t *testing.T) {
	fn := Slots{Logic: LinearDecay{}, MaxImpressions: 3, Value: 60}
	epochs := epochsOf([]int{1, 2, 3})
	h := fn.Attribute(epochs)
	// linear-decay gives 10,20,30 oldest-first; slots are newest-first.
	if h[0] != 30 || h[1] != 20 || h[2] != 10 {
		t.Fatalf("report = %v", h)
	}
}

func TestBinnedByCampaign(t *testing.T) {
	epochs := epochsOf([]int{1, 2}, []int{8})
	epochs[0][0].Campaign = events.Intern("a1")
	epochs[0][1].Campaign = events.Intern("a2")
	epochs[1][0].Campaign = events.Intern("a1")
	fn := Binned{
		Logic: EqualCredit{},
		Bins:  map[events.Sym]int{events.Intern("a1"): 0, events.Intern("a2"): 1},
		Dim:   2,
		Value: 90,
	}
	h := fn.Attribute(epochs)
	if h[0] != 60 || h[1] != 30 {
		t.Fatalf("binned report = %v, want [60 30]", h)
	}
}

func TestBinnedIgnoresUnmappedCampaigns(t *testing.T) {
	epochs := epochsOf([]int{1, 2})
	epochs[0][0].Campaign = events.Intern("a1")
	epochs[0][1].Campaign = events.Intern("unknown")
	fn := Binned{Logic: LastTouch{}, Bins: map[events.Sym]int{events.Intern("a1"): 0}, Dim: 1, Value: 50}
	h := fn.Attribute(epochs)
	// Last-touch over the *mapped* subset: a1 gets everything.
	if h[0] != 50 {
		t.Fatalf("binned report = %v", h)
	}
}

func TestScalarValue(t *testing.T) {
	fn := ScalarValue{Value: 42}
	if h := fn.Attribute(epochsOf([]int{3})); h[0] != 42 {
		t.Fatalf("hit report = %v", h)
	}
	if h := fn.Attribute(epochsOf(nil)); !h.IsZero() || len(h) != 1 {
		t.Fatalf("miss report = %v", h)
	}
	if fn.OutputDim() != 1 {
		t.Fatal("dim wrong")
	}
}

func TestScalarValueIgnoresConversions(t *testing.T) {
	fn := ScalarValue{Value: 42}
	conv := events.Event{Kind: events.KindConversion, Advertiser: events.Intern("nike.com"), Value: 10}
	h := fn.Attribute([][]events.Event{{conv}})
	if !h.IsZero() {
		t.Fatal("conversion-only epoch must yield a null report")
	}
}

func TestReportGlobalSensitivity(t *testing.T) {
	lt := LastTouch{}
	if got := ReportGlobalSensitivity(lt, 70, 1, 4); got != 70 {
		t.Fatalf("m=1: %v", got)
	}
	if got := ReportGlobalSensitivity(lt, 70, 2, 1); got != 70 {
		t.Fatalf("k=1: %v", got)
	}
	if got := ReportGlobalSensitivity(lt, 70, 2, 4); got != 140 {
		t.Fatalf("m,k≥2 shifting: %v", got)
	}
}

func TestReportGlobalSensitivityPanics(t *testing.T) {
	for _, tc := range []struct {
		amax float64
		m, k int
	}{{-1, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for %+v", tc)
				}
			}()
			ReportGlobalSensitivity(LastTouch{}, tc.amax, tc.m, tc.k)
		}()
	}
}

func TestMaxEpochRemovalSensitivityMatchesGlobal(t *testing.T) {
	// Thm. 18: for one-hot histogram attributions Δmax = Δ.
	if MaxEpochRemovalSensitivity(LastTouch{}, 70, 2, 4) != ReportGlobalSensitivity(LastTouch{}, 70, 2, 4) {
		t.Fatal("Δmax should equal Δ for last-touch")
	}
}

// Property: ‖A(F)‖₁ ≤ value for every function/logic combination — the
// individual sensitivity of a single-epoch report never exceeds the
// conversion value (the basis for the single-epoch optimization).
func TestAttributionNormBoundedQuick(t *testing.T) {
	f := func(dayBytes []uint8, rawValue float64, dim uint8) bool {
		value := math.Mod(math.Abs(rawValue), 1000)
		if math.IsNaN(value) {
			return true
		}
		m := int(dim%4) + 1
		days := make([]int, len(dayBytes))
		for i, b := range dayBytes {
			days[i] = int(b)
		}
		epochs := epochsOf(days)
		fns := []Function{
			Slots{Logic: LastTouch{}, MaxImpressions: m, Value: value},
			Slots{Logic: EqualCredit{}, MaxImpressions: m, Value: value},
			ScalarValue{Value: value},
		}
		for _, fn := range fns {
			h := fn.Attribute(epochs)
			if len(h) != fn.OutputDim() {
				return false
			}
			if h.L1() > value*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: attribution output is insensitive to empty epochs being nil vs
// absent-but-present-as-empty — A treats ∅ uniformly.
func TestNilVsEmptyEpochEquivalenceQuick(t *testing.T) {
	f := func(days []uint8) bool {
		dayInts := make([]int, len(days))
		for i, d := range days {
			dayInts[i] = int(d)
		}
		fn := Slots{Logic: LastTouch{}, MaxImpressions: 2, Value: 10}
		withNil := fn.Attribute(append(epochsOf(dayInts), nil))
		withEmpty := fn.Attribute(append(epochsOf(dayInts), []events.Event{}))
		for i := range withNil {
			if withNil[i] != withEmpty[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
