package privacy

import (
	"math"
	"testing"
	"testing/quick"
)

// The composition results of the paper's formal analysis (§4.2.4 and
// Appendix D) as checkable arithmetic. The per-querier filters enforce the
// guarantees structurally; the tests compute the bounds the theorems promise.

// IndividualDPBound returns the individual device-epoch DP bound of Thm. 1
// for a device with per-querier budget capacity epsG. constrainedQueries
// selects between the theorem's two cases: true when every attribution
// function satisfies A(..., Fᵢ∩P, ...) = A(..., ∅, ...) — e.g. when queries
// touch public events only through report identifiers (F_A ∩ P = ∅) — giving
// the tight ε^G bound; false for general queries, giving 2ε^G.
func IndividualDPBound(epsG float64, constrainedQueries bool) float64 {
	if constrainedQueries {
		return epsG
	}
	return 2 * epsG
}

// UnlinkabilityBound returns the bound of Thm. 2 on distinguishing "events
// F₀ all on device d₀" from "events split between d₀ and d₁" at one epoch:
// 2ε^G_{d₀} + ε^G_{d₁} (the record triple x₀=(d₀,e,F₀), x₁=(d₁,e,F₁),
// x₂=(d₀,e,F₀∖F₁) contributes ε_x0 + ε_x1 + ε_x2 with x₀, x₂ on d₀).
func UnlinkabilityBound(epsD0, epsD1 float64) float64 {
	return 2*epsD0 + epsD1
}

// CollusionBound returns Thm. 10's bound for n colluding queriers with
// per-device budgets eps[i]: Σᵢ 2ε_i in the general case, and Σᵢ ε_i when
// every querier's attribution functions ignore the *joint* public
// information P = P₁∪...∪Pₙ (the stricter constraint discussed after
// Thm. 10 — an advertiser/publisher pair typically does not satisfy it).
func CollusionBound(eps []float64, jointConstrained bool) float64 {
	sum := 0.0
	for _, e := range eps {
		sum += e
	}
	if jointConstrained {
		return sum
	}
	return 2 * sum
}

// SequentialComposition returns the pure-DP sequential composition of a set
// of losses: their sum. The filter enforces exactly this quantity against
// its capacity; tests use the helper to cross-check filter behaviour.
func SequentialComposition(losses []float64) float64 {
	sum := 0.0
	for _, l := range losses {
		sum += l
	}
	return sum
}

func TestIndividualDPBound(t *testing.T) {
	if IndividualDPBound(1.0, true) != 1.0 {
		t.Fatal("constrained bound should be ε^G")
	}
	if IndividualDPBound(1.0, false) != 2.0 {
		t.Fatal("general bound should be 2ε^G")
	}
}

func TestUnlinkabilityBound(t *testing.T) {
	// Thm. 2: 2ε_{d0} + ε_{d1}.
	if got := UnlinkabilityBound(1.0, 0.5); got != 2.5 {
		t.Fatalf("UnlinkabilityBound = %v", got)
	}
	// Symmetric budgets: 3ε.
	if got := UnlinkabilityBound(1, 1); got != 3 {
		t.Fatalf("UnlinkabilityBound = %v", got)
	}
}

func TestCollusionBound(t *testing.T) {
	eps := []float64{0.5, 1.0, 0.25}
	if got := CollusionBound(eps, false); got != 3.5 {
		t.Fatalf("general collusion = %v", got)
	}
	if got := CollusionBound(eps, true); got != 1.75 {
		t.Fatalf("constrained collusion = %v", got)
	}
	if CollusionBound(nil, false) != 0 {
		t.Fatal("empty collusion not 0")
	}
}

func TestSequentialComposition(t *testing.T) {
	if got := SequentialComposition([]float64{0.1, 0.2, 0.3}); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("SequentialComposition = %v", got)
	}
	if SequentialComposition(nil) != 0 {
		t.Fatal("empty composition not 0")
	}
}

// Collusion of constrained queriers is never worse than unconstrained,
// and single-querier collusion reduces to the individual bound.
func TestCollusionConsistencyQuick(t *testing.T) {
	f := func(raw []float64) bool {
		eps := make([]float64, 0, len(raw))
		for _, e := range raw {
			v := math.Mod(math.Abs(e), 10)
			if math.IsNaN(v) {
				continue
			}
			eps = append(eps, v)
		}
		gen := CollusionBound(eps, false)
		con := CollusionBound(eps, true)
		if con > gen {
			return false
		}
		if len(eps) == 1 {
			if con != IndividualDPBound(eps[0], true) {
				return false
			}
			if gen != IndividualDPBound(eps[0], false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
