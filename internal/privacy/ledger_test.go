package privacy

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// filterMapRef is the old map-of-filters budget table — the implementation
// the flat ledger replaced — kept here as the reference model for the
// property test: over any sequence of charges, denials, floor advances, and
// reads, the ledger must hold exactly the state the per-(querier, epoch)
// Filter table would. requested is the engines' old accounting map beside it
// (requested_test.go): which queriers' report windows covered which epoch.
type filterMapRef struct {
	capacity  float64
	floor     int64
	budgets   map[string]map[int64]*Filter
	requested map[int64]map[string]struct{}
}

func newFilterMapRef(capacity float64) *filterMapRef {
	return &filterMapRef{
		capacity:  capacity,
		floor:     -1 << 31,
		budgets:   make(map[string]map[int64]*Filter),
		requested: make(map[int64]map[string]struct{}),
	}
}

// charge replicates Device.filter + Filter.Consume: floor check, lazy filter
// creation (also on the denial path), atomic check-and-consume.
func (r *filterMapRef) charge(q string, e int64, eps float64) ChargeOutcome {
	if eps == 0 {
		return ChargeZero
	}
	if e < r.floor {
		return ChargeEvicted
	}
	byEpoch := r.budgets[q]
	if byEpoch == nil {
		byEpoch = make(map[int64]*Filter)
		r.budgets[q] = byEpoch
	}
	f := byEpoch[e]
	if f == nil {
		f = NewFilter(r.capacity)
		byEpoch[e] = f
	}
	if err := f.Consume(eps); err != nil {
		return ChargeDenied
	}
	return ChargeOK
}

func (r *filterMapRef) consumed(q string, e int64) float64 {
	if byEpoch := r.budgets[q]; byEpoch != nil {
		if f := byEpoch[e]; f != nil {
			return f.Consumed()
		}
	}
	return 0
}

// advanceFloor replicates Device.SetEpochFloor: evict filters below the
// floor, count the released ones, never move backwards. The requested marks
// below the floor go with them.
func (r *filterMapRef) advanceFloor(floor int64) int {
	if floor <= r.floor {
		return 0
	}
	r.floor = floor
	for e := range r.requested {
		if e < floor {
			delete(r.requested, e)
		}
	}
	released := 0
	for _, byEpoch := range r.budgets {
		for e := range byEpoch {
			if e < floor {
				delete(byEpoch, e)
				released++
			}
		}
	}
	return released
}

func (r *filterMapRef) rows() map[string]map[int64]float64 {
	out := make(map[string]map[int64]float64)
	for q, byEpoch := range r.budgets {
		for e, f := range byEpoch {
			if out[q] == nil {
				out[q] = make(map[int64]float64)
			}
			out[q][e] = f.Consumed()
		}
	}
	return out
}

// TestLedgerMatchesFilterMapReference drives the flat ledger and the old
// map-of-filters table through identical randomized charge/deny/evict/mark
// sequences and asserts bit-identical state after every operation.
func TestLedgerMatchesFilterMapReference(t *testing.T) {
	queriers := []string{"nike.com", "adidas.com", "criteo.com"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []float64{0, 0.01, 1, 5}[rng.Intn(4)]
		l := NewLedger(capacity)
		ref := newFilterMapRef(capacity)

		for op := 0; op < 400; op++ {
			switch rng.Intn(10) {
			case 2, 3: // requested mark over a window, sometimes below the floor
				q := queriers[rng.Intn(len(queriers))]
				first := int64(rng.Intn(60) - 10)
				if err := checkMark(l, ref, q, first, first+int64(rng.Intn(6))); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			case 0: // floor advance (sometimes backwards, must be a no-op)
				floor := int64(rng.Intn(60) - 10)
				got, want := l.AdvanceFloor(floor), ref.advanceFloor(floor)
				if got != want {
					t.Fatalf("seed %d op %d: AdvanceFloor(%d) released %d, ref %d",
						seed, op, floor, got, want)
				}
			case 1: // whole-window charge
				q := queriers[rng.Intn(len(queriers))]
				first := int64(rng.Intn(50))
				k := rng.Intn(6) + 1
				losses := make([]float64, k)
				for i := range losses {
					if rng.Intn(3) > 0 {
						losses[i] = rng.Float64() * capacity * 1.5
					}
				}
				outcomes := make([]ChargeOutcome, k)
				l.ChargeWindow(q, first, losses, outcomes)
				for i, eps := range losses {
					if want := ref.charge(q, first+int64(i), eps); outcomes[i] != want {
						t.Fatalf("seed %d op %d: window outcome[%d] = %v, ref %v",
							seed, op, i, outcomes[i], want)
					}
				}
			default: // single charge
				q := queriers[rng.Intn(len(queriers))]
				e := int64(rng.Intn(50))
				eps := 0.0
				if rng.Intn(4) > 0 {
					eps = rng.Float64() * capacity * 1.2
				}
				got, want := l.Charge(q, e, eps), ref.charge(q, e, eps)
				if got != want {
					t.Fatalf("seed %d op %d: Charge(%s,%d,%v) = %v, ref %v",
						seed, op, q, e, eps, got, want)
				}
			}

			// Spot-check reads every few ops; full-state compare at the end.
			q := queriers[rng.Intn(len(queriers))]
			e := int64(rng.Intn(50))
			if got, want := l.Consumed(q, e), ref.consumed(q, e); got != want {
				t.Fatalf("seed %d op %d: Consumed(%s,%d) = %v, ref %v",
					seed, op, q, e, got, want)
			}
		}

		// Final state: every initialized slot matches the reference table
		// exactly (bitwise — both sides run the same float arithmetic).
		want := ref.rows()
		for _, row := range l.Rows() {
			if row.Capacity != capacity {
				t.Fatalf("seed %d: row capacity %v, want uniform %v", seed, row.Capacity, capacity)
			}
			wantC, ok := want[row.Querier][row.Epoch]
			if !ok {
				t.Fatalf("seed %d: ledger has slot %s/%d the reference lacks",
					seed, row.Querier, row.Epoch)
			}
			if row.Consumed != wantC {
				t.Fatalf("seed %d: slot %s/%d consumed %v, ref %v",
					seed, row.Querier, row.Epoch, row.Consumed, wantC)
			}
			delete(want[row.Querier], row.Epoch)
		}
		for q, byEpoch := range want {
			if len(byEpoch) != 0 {
				t.Fatalf("seed %d: reference has %d slots for %s the ledger lacks",
					seed, len(byEpoch), q)
			}
		}
		if l.Floor() != ref.floor {
			t.Fatalf("seed %d: floor %d, ref %d", seed, l.Floor(), ref.floor)
		}
		if err := checkRequested(l, ref); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestLedgerTotalsMatchRowSums checks RangeTotals against the row snapshot
// and the NumQueriers pre-sizing hint.
func TestLedgerTotalsMatchRowSums(t *testing.T) {
	l := NewLedger(10)
	l.Charge("a", 3, 1)
	l.Charge("a", 1, 2)
	l.Charge("a", 7, 0.5)
	l.Charge("b", 2, 4)
	// A lane that holds only requested marks — every window zero-loss, or
	// the budget kept centrally — is no querier the ledger was charged by:
	// NumQueriers, RangeTotals and Rows report what they did without it.
	rows := l.Rows()
	l.MarkRequested("c", 0, 4)
	l.MarkRequested("a", 0, 9)
	l.Charge("c", 2, 0)
	if !slices.Equal(l.Rows(), rows) {
		t.Fatalf("marks changed Rows(): %v, was %v", l.Rows(), rows)
	}
	if l.NumQueriers() != 2 {
		t.Fatalf("NumQueriers = %d", l.NumQueriers())
	}
	sums := map[string]float64{}
	for _, row := range l.Rows() {
		sums[row.Querier] += row.Consumed
	}
	n := 0
	l.RangeTotals(func(q string, total float64) {
		n++
		if math.Abs(total-sums[q]) > 1e-15 {
			t.Fatalf("total(%s) = %v, rows sum %v", q, total, sums[q])
		}
	})
	if n != 2 {
		t.Fatalf("RangeTotals visited %d queriers", n)
	}
}

// TestLedgerFloorRecyclesSlots exercises the O(1) lane re-slice: slots below
// the floor disappear from every read path, epochs at or above survive, and
// charging below the floor reports eviction.
func TestLedgerFloorRecyclesSlots(t *testing.T) {
	l := NewLedger(5)
	for e := int64(0); e < 8; e++ {
		if out := l.Charge("q", e, 1); out != ChargeOK {
			t.Fatalf("charge(%d) = %v", e, out)
		}
	}
	if released := l.AdvanceFloor(5); released != 5 {
		t.Fatalf("released %d, want 5", released)
	}
	if got := l.Consumed("q", 4); got != 0 {
		t.Fatalf("evicted epoch consumed = %v", got)
	}
	if got := l.Consumed("q", 5); got != 1 {
		t.Fatalf("surviving epoch consumed = %v", got)
	}
	if out := l.Charge("q", 4, 1); out != ChargeEvicted {
		t.Fatalf("charge below floor = %v, want ChargeEvicted", out)
	}
	if rows := l.Rows(); len(rows) != 3 {
		t.Fatalf("rows after eviction = %d, want 3", len(rows))
	}
	// A full eviction leaves an empty lane, matching the old empty inner
	// map: the querier is still known, totals are zero.
	if released := l.AdvanceFloor(100); released != 3 {
		t.Fatalf("full eviction released %d, want 3", released)
	}
	l.RangeTotals(func(q string, total float64) {
		if q != "q" || total != 0 {
			t.Fatalf("post-eviction totals: %s=%v", q, total)
		}
	})
}

// TestLedgerRestore covers the persistence path: refund refusal, refusal of a
// capacity other than the ledger's, floor interaction.
func TestLedgerRestore(t *testing.T) {
	l := NewLedger(1)
	if err := l.Restore("q", 2, 0.4, 1); err != nil {
		t.Fatal(err)
	}
	if got := l.Consumed("q", 2); got != 0.4 {
		t.Fatalf("restored consumed = %v", got)
	}
	// Raising is fine; lowering is a refund and must fail.
	if err := l.Restore("q", 2, 0.6, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Restore("q", 2, 0.5, 1); err == nil {
		t.Fatal("refund accepted")
	}
	// Corrupt rows are refused.
	if err := l.Restore("q", 3, -1, 1); err == nil {
		t.Fatal("negative consumed accepted")
	}
	if err := l.Restore("q", 3, 2, 1); err == nil {
		t.Fatal("over-capacity accepted")
	}
	// A differing capacity is refused and leaves no slot behind.
	if err := l.Restore("q", 4, 1.5, 2); err == nil {
		t.Fatal("differing capacity accepted")
	}
	for _, row := range l.Rows() {
		if row.Epoch == 4 || row.Capacity != 1 {
			t.Fatalf("refused restore left row %+v", row)
		}
	}
	if out := l.Charge("q", 4, 0.6); out != ChargeOK {
		t.Fatalf("slot refused by restore does not charge at ε^G: %v", out)
	}
	// Below the floor, restore refuses to resurrect evicted epochs.
	l.AdvanceFloor(10)
	if err := l.Restore("q", 2, 0.9, 1); err == nil {
		t.Fatal("restore below floor accepted")
	}
}

// TestLedgerConcurrentRace hammers one ledger with concurrent charges,
// window charges, reads, and floor advances — the -race coverage for the
// single-mutex design. Consistency invariant: no slot ever exceeds capacity.
func TestLedgerConcurrentRace(t *testing.T) {
	l := NewLedger(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := []string{"a", "b"}[w%2]
			losses := []float64{0.01, 0, 0.02}
			outcomes := make([]ChargeOutcome, len(losses))
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					l.Charge(q, int64(i%20), 0.015)
				case 1:
					l.ChargeWindow(q, int64(i%20), losses, outcomes)
				case 2:
					l.Consumed(q, int64(i%20))
					l.RangeTotals(func(string, float64) {})
					l.MarkRequested(q, int64(i%20), int64(i%20)+3)
					l.RangeRequested(func(int64, []string, []float64) {})
				case 3:
					if w == 0 && i > 100 {
						l.AdvanceFloor(int64(i / 50))
					}
					l.Rows()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, row := range l.Rows() {
		if row.Consumed > row.Capacity {
			t.Fatalf("slot %s/%d over capacity: %v", row.Querier, row.Epoch, row.Consumed)
		}
	}
}

// TestChargeWindowBatchMatchesSequential holds the single-lock batched charge
// to the sequential reference: for random charge tables (several queriers,
// overlapping windows, zero and over-budget losses, interleaved floor
// advances) one ChargeWindowBatch call must produce the outcomes and final
// ledger rows of ChargeWindow applied charge by charge in slice order.
func TestChargeWindowBatchMatchesSequential(t *testing.T) {
	queriers := []string{"nike.com", "adidas.com", "puma.com"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cap := []float64{0, 0.01, 0.05, 1}[rng.Intn(4)]
		batched, seq := NewLedger(cap), NewLedger(cap)

		for round := 0; round < 5; round++ {
			if rng.Intn(3) == 0 {
				floor := int64(rng.Intn(6))
				batched.AdvanceFloor(floor)
				seq.AdvanceFloor(floor)
			}
			n := 1 + rng.Intn(6)
			charges := make([]WindowCharge, n)
			wantOut := make([][]ChargeOutcome, n)
			for j := range charges {
				w := 1 + rng.Intn(5)
				losses := make([]float64, w)
				for i := range losses {
					losses[i] = []float64{0, 0.004, 0.02, 2}[rng.Intn(4)]
				}
				charges[j] = WindowCharge{
					Querier:  queriers[rng.Intn(3)],
					First:    int64(rng.Intn(6)),
					Losses:   losses,
					Outcomes: make([]ChargeOutcome, w),
				}
				wantOut[j] = make([]ChargeOutcome, w)
			}

			batched.ChargeWindowBatch(charges)
			for j, ch := range charges {
				seq.ChargeWindow(ch.Querier, ch.First, ch.Losses, wantOut[j])
			}

			for j := range charges {
				for i := range wantOut[j] {
					if charges[j].Outcomes[i] != wantOut[j][i] {
						t.Fatalf("seed %d round %d charge %d epoch %d: %v want %v",
							seed, round, j, i, charges[j].Outcomes[i], wantOut[j][i])
					}
				}
			}
		}
		br, sr := batched.Rows(), seq.Rows()
		if len(br) != len(sr) {
			t.Fatalf("seed %d: %d rows vs %d", seed, len(br), len(sr))
		}
		for i := range br {
			if br[i] != sr[i] {
				t.Fatalf("seed %d row %d: %+v vs %+v", seed, i, br[i], sr[i])
			}
		}
	}
}

// TestLedgerDenialsCounter pins the denial-telemetry semantics: the counter
// increments once per denied charge — and only then. Zero charges, evicted
// epochs, and granted charges leave it alone.
func TestLedgerDenialsCounter(t *testing.T) {
	l := NewLedger(1)
	if l.Denials() != 0 {
		t.Fatalf("fresh ledger has %d denials", l.Denials())
	}
	if got := l.Charge("q", 0, 0.8); got != ChargeOK {
		t.Fatalf("first charge = %v", got)
	}
	if got := l.Charge("q", 0, 0.8); got != ChargeDenied {
		t.Fatalf("over-capacity charge = %v", got)
	}
	if got := l.Charge("q", 0, 0.8); got != ChargeDenied {
		t.Fatalf("repeat over-capacity charge = %v", got)
	}
	if l.Charge("q", 1, 0) != ChargeZero {
		t.Fatal("zero charge not ChargeZero")
	}
	l.AdvanceFloor(5)
	if l.Charge("q", 2, 0.5) != ChargeEvicted {
		t.Fatal("evicted charge not ChargeEvicted")
	}
	if l.Denials() != 2 {
		t.Fatalf("denials = %d, want 2", l.Denials())
	}
}
