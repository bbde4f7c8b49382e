package attribution

import (
	"repro/internal/events"
)

// Function is the attribution function A : P(I∪C)^k → R^m of §4.1.2. The
// engine hands it the *relevant* events of each epoch in the attribution
// window (oldest epoch first; out-of-budget epochs arrive as nil, i.e. ∅),
// and it returns a fixed-dimension histogram. Implementations must satisfy
// the defining property A(F₁,...,F_k) = A(F₁∩F_A,...,F_k∩F_A) — they only
// ever look at relevant events — which holds trivially here because
// selection happens before the call.
type Function interface {
	// Attribute computes the report vector from per-epoch relevant
	// events. It must return an all-zero histogram (never nil) when no
	// impressions are present, so null reports are indistinguishable in
	// shape from real ones.
	Attribute(epochs [][]events.Event) Histogram
	// OutputDim returns m, the fixed report dimension.
	OutputDim() int
}

// flattenImpressions concatenates the impressions of all epochs in time
// order. Epoch slices are already internally ordered and epochs are given
// oldest-first, so concatenation preserves (Day, ID) order. The output is
// sized in a counting pre-pass: one exact allocation instead of append
// growth, and nil when no impression exists.
func flattenImpressions(epochs [][]events.Event) []events.Event {
	n := 0
	for _, evs := range epochs {
		for _, ev := range evs {
			if ev.IsImpression() {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]events.Event, 0, n)
	for _, evs := range epochs {
		for _, ev := range evs {
			if ev.IsImpression() {
				out = append(out, ev)
			}
		}
	}
	return out
}

// Slots is the per-impression-slot attribution function of the paper's
// running example (§3.2): the conversion value is distributed by Logic over
// at most MaxImpressions most-recent relevant impressions, and slot i of the
// output holds the credit of the i-th most recent one, padded with zeros to
// a fixed dimension so the encrypted report's shape leaks nothing.
type Slots struct {
	// Logic distributes Value over the selected impressions.
	Logic Logic
	// MaxImpressions is m, the number of slots (≥ 1).
	MaxImpressions int
	// Value is the conversion value to distribute.
	Value float64
}

// Attribute implements Function.
func (s Slots) Attribute(epochs [][]events.Event) Histogram {
	h := NewHistogram(s.MaxImpressions)
	imps := flattenImpressions(epochs)
	if len(imps) > s.MaxImpressions {
		imps = imps[len(imps)-s.MaxImpressions:]
	}
	credits := s.Logic.Credits(imps, s.Value)
	// Slot 0 = most recent impression, matching ρ={(I₂,70),(0,0)}.
	for i := range credits {
		h[len(credits)-1-i] = credits[i]
	}
	return h
}

// OutputDim implements Function.
func (s Slots) OutputDim() int { return s.MaxImpressions }

// Binned is the per-campaign histogram attribution function of §4.1.3: each
// impression's credit lands in the bin of its campaign (the one-hot mapping
// H(f) of Thm. 18), letting a querier compare campaigns a₁ vs a₂ in one
// query. Impressions whose campaign is unmapped are ignored.
type Binned struct {
	// Logic distributes Value over all relevant impressions.
	Logic Logic
	// Bins maps campaign identifiers to bin indices in [0, Dim).
	Bins map[events.Sym]int
	// Dim is the histogram dimension m.
	Dim int
	// Value is the conversion value to distribute.
	Value float64
}

// Attribute implements Function.
func (b Binned) Attribute(epochs [][]events.Event) Histogram {
	h := NewHistogram(b.Dim)
	imps := flattenImpressions(epochs)
	// Only impressions with a mapped campaign participate, so credit is
	// computed over that subset.
	mapped := imps[:0:0]
	for _, imp := range imps {
		if idx, ok := b.Bins[imp.Campaign]; ok && idx >= 0 && idx < b.Dim {
			mapped = append(mapped, imp)
		}
	}
	credits := b.Logic.Credits(mapped, b.Value)
	for i, imp := range mapped {
		h[b.Bins[imp.Campaign]] += credits[i]
	}
	return h
}

// OutputDim implements Function.
func (b Binned) OutputDim() int { return b.Dim }

// ScalarValue is the attribution function used throughout the paper's
// evaluation (§6.1): a one-dimensional report that carries the conversion
// value C if any relevant impression exists in the (in-budget) window and 0
// otherwise, under last-touch semantics.
type ScalarValue struct {
	// Value is the conversion value C.
	Value float64
}

// Attribute implements Function. Presence of any relevant impression is the
// only input, so the window is scanned in place — no flattening copy on the
// evaluation workloads' hot path.
func (s ScalarValue) Attribute(epochs [][]events.Event) Histogram {
	h := NewHistogram(1)
	for _, evs := range epochs {
		for _, ev := range evs {
			if ev.IsImpression() {
				h[0] = s.Value
				return h
			}
		}
	}
	return h
}

// OutputDim implements Function.
func (ScalarValue) OutputDim() int { return 1 }
