package privacy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/events"
)

// refFilter is one pure-DP privacy filter of the reference model, the
// standalone type a ledger slot folds in: it admits losses while their
// running sum stays within capacity, with a relative 1e-9 tolerance at the
// boundary, and deducts nothing for a loss it refuses.
type refFilter struct{ capacity, consumed float64 }

// fits reports whether eps would be admitted now.
func (f *refFilter) fits(eps float64) bool {
	return eps >= 0 && f.consumed+eps <= f.capacity*(1+1e-9)
}

// consume deducts eps if it fits, clamping the sum to capacity, and reports
// whether it did.
func (f *refFilter) consume(eps float64) bool {
	if !f.fits(eps) {
		return false
	}
	f.consumed = min(f.consumed+eps, f.capacity)
	return true
}

// filterMapRef is the map-of-filters budget table the flat ledger replaced,
// kept as the reference model: over any sequence of charges, denials, marks,
// all-or-nothing window charges and reads, the ledger must hold exactly the
// state the per-(querier, epoch) filter table would. requested is the
// engines' old accounting map beside it (requested_test.go): which queriers'
// report windows covered which epoch.
type filterMapRef struct {
	capacity  float64
	budgets   map[events.Sym]map[int64]*refFilter
	requested map[int64]map[events.Sym]struct{}
}

func newFilterMapRef(capacity float64) *filterMapRef {
	return &filterMapRef{
		capacity:  capacity,
		budgets:   make(map[events.Sym]map[int64]*refFilter),
		requested: make(map[int64]map[events.Sym]struct{}),
	}
}

// filter returns (lazily creating) the filter for (q, e).
func (r *filterMapRef) filter(q events.Sym, e int64) *refFilter {
	byEpoch := r.budgets[q]
	if byEpoch == nil {
		byEpoch = make(map[int64]*refFilter)
		r.budgets[q] = byEpoch
	}
	f := byEpoch[e]
	if f == nil {
		f = &refFilter{capacity: r.capacity}
		byEpoch[e] = f
	}
	return f
}

// charge replicates a device's charge over the filter table: lazy filter
// creation (also on the denial path), atomic check-and-consume.
func (r *filterMapRef) charge(q events.Sym, e int64, eps float64) ChargeOutcome {
	if eps == 0 {
		return ChargeZero
	}
	if !r.filter(q, e).consume(eps) {
		return ChargeDenied
	}
	return ChargeOK
}

// all transcribes the retired central budgeter's Authorize: walk the window
// creating each epoch's filter, stop at the first that cannot take eps, and
// only when every one can, consume eps from all of them.
func (r *filterMapRef) all(q events.Sym, first, last int64, eps float64) bool {
	if last < first {
		return true
	}
	for e := first; e <= last; e++ {
		if !r.filter(q, e).fits(eps) {
			return false
		}
	}
	for e := first; e <= last; e++ {
		r.filter(q, e).consume(eps)
	}
	return true
}

func (r *filterMapRef) consumed(q events.Sym, e int64) float64 {
	if byEpoch := r.budgets[q]; byEpoch != nil {
		if f := byEpoch[e]; f != nil {
			return f.consumed
		}
	}
	return 0
}

func (r *filterMapRef) rows() map[events.Sym]map[int64]float64 {
	out := make(map[events.Sym]map[int64]float64)
	for q, byEpoch := range r.budgets {
		for e, f := range byEpoch {
			if out[q] == nil {
				out[q] = make(map[int64]float64)
			}
			out[q][e] = f.consumed
		}
	}
	return out
}

// reverseInterned interns names, which must be sorted and new to the
// process's symbol table, last name first, and returns their symbols in name
// order. Symbol numbers then run against name order, so a ledger that placed
// lanes by symbol number instead of by name would walk backwards.
func reverseInterned(names ...string) []events.Sym {
	syms := make([]events.Sym, len(names))
	for i := len(names) - 1; i >= 0; i-- {
		syms[i] = events.Intern(names[i])
	}
	return syms
}

// TestLedgerMatchesFilterMapReference drives the flat ledger and the old
// map-of-filters table through identical randomized charge/deny/mark/
// all-or-nothing sequences and asserts bit-identical state after every
// operation. Each seed opens by giving the outer two queriers (in name
// order) cells and marks and then creating the middle one's lane between
// them, so the block shifts a neighbour's cells and marks on every seed.
func TestLedgerMatchesFilterMapReference(t *testing.T) {
	queriers := reverseInterned("adidas.ref", "criteo.ref", "nike.ref")
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []float64{0, 0.01, 1, 5}[rng.Intn(4)]
		l := NewLedger(capacity)
		ref := newFilterMapRef(capacity)
		// The opening: mark and charge the outer lanes, then reach the
		// middle one by a random op.
		opening := []struct{ kind, q int }{{2, 0}, {0, 0}, {3, 2}, {1, 2}, {rng.Intn(10), 1}}

		for op := 0; op < 400; op++ {
			kind, q := rng.Intn(10), queriers[rng.Intn(len(queriers))]
			if op < len(opening) {
				kind, q = opening[op].kind, queriers[opening[op].q]
			}
			switch kind {
			case 4: // all-or-nothing window charge (IPA-like)
				first := int64(rng.Intn(50))
				last := first + int64(rng.Intn(7)) - 1 // sometimes empty
				eps := rng.Float64() * capacity * 0.7
				denials := l.Denials()
				if got, want := l.ChargeAll(q, first, last, eps), ref.all(q, first, last, eps); got != want {
					t.Fatalf("seed %d op %d: ChargeAll(%s,%d,%d,%v) = %t, ref %t",
						seed, op, q, first, last, eps, got, want)
				}
				if l.Denials() != denials {
					t.Fatalf("seed %d op %d: ChargeAll counted a denial", seed, op)
				}
			case 2, 3: // requested mark over a window
				first := int64(rng.Intn(60) - 10)
				if err := checkMark(l, ref, q, first, first+int64(rng.Intn(6))); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			case 1: // whole-window charge
				first := int64(rng.Intn(50))
				k := rng.Intn(6) + 1
				losses := make([]float64, k)
				for i := range losses {
					if rng.Intn(3) > 0 {
						losses[i] = rng.Float64() * capacity * 1.5
					}
				}
				outcomes := make([]ChargeOutcome, k)
				l.ChargeWindowBatch([]WindowCharge{{Querier: q, First: first, Losses: losses, Outcomes: outcomes}})
				for i, eps := range losses {
					if want := ref.charge(q, first+int64(i), eps); outcomes[i] != want {
						t.Fatalf("seed %d op %d: window outcome[%d] = %v, ref %v",
							seed, op, i, outcomes[i], want)
					}
				}
			default: // single charge
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
			if op < len(opening) {
				// Hold the whole state through the opening, where every
				// lane creation lands.
				if err := checkRows(l, ref); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				if err := checkRequested(l, ref); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}

			// Spot-check reads every few ops; full-state compare at the end.
			q = queriers[rng.Intn(len(queriers))]
			e := int64(rng.Intn(50))
			if got, want := l.Consumed(q, e), ref.consumed(q, e); got != want {
				t.Fatalf("seed %d op %d: Consumed(%s,%d) = %v, ref %v",
					seed, op, q, e, got, want)
			}
		}

		// Final state: every initialized slot matches the reference table
		// exactly (bitwise — both sides run the same float arithmetic).
		for _, row := range l.Rows() {
			if row.Capacity != capacity {
				t.Fatalf("seed %d: row capacity %v, want uniform %v", seed, row.Capacity, capacity)
			}
		}
		if err := checkRows(l, ref); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkRequested(l, ref); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkNameOrder(l); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// strictlyAscending reports whether names is sorted by name with no repeats.
func strictlyAscending(names []events.Sym) bool {
	for i := 1; i < len(names); i++ {
		if names[i-1].Compare(names[i]) >= 0 {
			return false
		}
	}
	return true
}

// checkNameOrder holds every walk to the order the lane layout promises, no
// sort in between: Rows() strictly ascending by (querier name, epoch),
// RangeTotals visiting queriers in strictly ascending name order, and each
// RangeRequested call handing its queriers strictly ascending.
func checkNameOrder(l *Ledger) error {
	rows := l.Rows()
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if c := a.Querier.Compare(b.Querier); c > 0 || c == 0 && a.Epoch >= b.Epoch {
			return fmt.Errorf("Rows() has %s/%d before %s/%d", a.Querier, a.Epoch, b.Querier, b.Epoch)
		}
	}
	var totals []events.Sym
	l.RangeTotals(func(q events.Sym, _ float64) { totals = append(totals, q) })
	if !strictlyAscending(totals) {
		return fmt.Errorf("RangeTotals visits %v", totals)
	}
	var err error
	l.RangeRequested(func(e int64, queriers []events.Sym, _ []float64) {
		if err == nil && !strictlyAscending(queriers) {
			err = fmt.Errorf("RangeRequested hands epoch %d queriers %v", e, queriers)
		}
	})
	return err
}

// TestLedgerLaneOrder creates lanes out of name order, each by another path
// — c by a charge, a by a mark alone, b by a restore — and checks that every
// walk comes out in name order and that a read creates no lane.
func TestLedgerLaneOrder(t *testing.T) {
	syms := reverseInterned("a.lane", "b.lane", "c.lane")
	a, b, c := syms[0], syms[1], syms[2]
	l := NewLedger(1)
	l.Charge(c, 2, 0.5)
	l.MarkRequested(a, 1, 2)
	if err := l.Restore(b, 2, 0.25); err != nil {
		t.Fatal(err)
	}
	l.MarkRequested(b, 2, 2)
	l.MarkRequested(c, 2, 2)

	want := []LedgerEntry{{b, 2, 0.25, 1}, {c, 2, 0.5, 1}}
	if rows := l.Rows(); !slices.Equal(rows, want) {
		t.Errorf("Rows() = %v, want %v", rows, want)
	}
	var requested []string
	l.RangeRequested(func(e int64, queriers []events.Sym, consumed []float64) {
		requested = append(requested, fmt.Sprint(e, queriers, consumed))
	})
	if want := []string{"1 [a.lane] [0]", "2 [a.lane b.lane c.lane] [0 0.25 0.5]"}; !slices.Equal(requested, want) {
		t.Errorf("RangeRequested yields %q, want %q", requested, want)
	}
	var totals []string
	l.RangeTotals(func(q events.Sym, total float64) { totals = append(totals, fmt.Sprintf("%s %v", q, total)) })
	if want := []string{"b.lane 0.25", "c.lane 0.5"}; !slices.Equal(totals, want) {
		t.Errorf("RangeTotals visits %q, want %q", totals, want)
	}
	if n := l.NumQueriers(); n != 2 {
		t.Errorf("NumQueriers = %d, want 2 (a holds marks only)", n)
	}
	version := l.Version()
	if c := l.Consumed(events.Intern("zzz"), 2); c != 0 {
		t.Errorf("Consumed(zzz, 2) = %v", c)
	}
	if l.lanes != 3 || l.Version() != version {
		t.Errorf("Consumed(zzz, 2) created a lane: %d lanes, version %d → %d", l.lanes, version, l.Version())
	}
}

// TestLedgerWalksAllocate pins what the one-block layout saves: a
// RangeRequested walk allocates only the two per-epoch buffers it hands fn —
// no list of querier names to sort — a charge or mark on an existing lane
// allocates nothing, and neither does one that grows a lane or creates one
// while the block has room.
func TestLedgerWalksAllocate(t *testing.T) {
	syms := reverseInterned("a.alloc", "b.alloc", "c.alloc")
	a, b, c := syms[0], syms[1], syms[2]
	l := NewLedger(10)
	for _, q := range []events.Sym{c, a, b} {
		l.Charge(q, 3, 0.1)
		l.MarkRequested(q, 0, 5)
	}
	if n := testing.AllocsPerRun(100, func() {
		l.RangeRequested(func(int64, []events.Sym, []float64) {})
	}); n > 2 {
		t.Errorf("RangeRequested on 3 queriers: %v allocations per call, want ≤ 2", n)
	}
	losses := []float64{0.001, 0, 0.001}
	outcomes := make([]ChargeOutcome, len(losses))
	batch := []WindowCharge{
		{Querier: b, First: 1, Losses: losses, Outcomes: outcomes},
		{Querier: c, First: 2, Losses: losses, Outcomes: outcomes},
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"ChargeWindow", func() { l.ChargeWindow("a.alloc", 2, losses, outcomes) }},
		{"ChargeWindowBatch", func() { l.ChargeWindowBatch(batch) }},
		{"MarkRequested", func() { l.MarkRequested(c, 1, 4) }},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s on an existing lane: %v allocations per call, want 0", tc.name, n)
		}
	}

	// Within the block's capacity, growing a lane and inserting one between
	// two others move words but allocate nothing. Each call grows the
	// ledger anew: a lane an epoch further each way, or one more lane.
	between := make([]string, 11)
	for i := range between {
		between[i] = fmt.Sprintf("b%02d.alloc", i)
	}
	fresh := reverseInterned(between...)
	g := NewLedger(10)
	g.MarkRequested(a, 0, 1)
	g.MarkRequested(c, 0, 1)
	g.setBlock(append(g.words(), make([]uint64, 256)...))
	older, newer := int64(0), int64(1)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"MarkRequested growing a lane", func() { older--; g.MarkRequested(a, older, older) }},
		{"charge growing a lane", func() { newer++; g.Charge(c, newer, 0.1) }},
		{"MarkRequested inserting a lane", func() { g.MarkRequested(fresh[0], 0, 1); fresh = fresh[1:] }},
	} {
		if n := testing.AllocsPerRun(10, tc.fn); n != 0 {
			t.Errorf("%s within the block's capacity: %v allocations per call, want 0", tc.name, n)
		}
	}
	if err := checkNameOrder(g); err != nil {
		t.Error(err)
	}
	if got, want := int(g.lanes), 2+len(between); got != want || g.Consumed(c, newer) != 0.1 {
		t.Errorf("after the growth: %d lanes, want %d; Consumed(c, %d) = %v", got, want, newer, g.Consumed(c, newer))
	}
}

// TestLedgerTotalsMatchRowSums checks RangeTotals against the row snapshot
// and the NumQueriers pre-sizing hint.
func TestLedgerTotalsMatchRowSums(t *testing.T) {
	l := NewLedger(10)
	l.Charge(events.Intern("a"), 3, 1)
	l.Charge(events.Intern("a"), 1, 2)
	l.Charge(events.Intern("a"), 7, 0.5)
	l.Charge(events.Intern("b"), 2, 4)
	// A lane that holds only requested marks — every window zero-loss, or
	// the budget kept centrally — is no querier the ledger was charged by:
	// NumQueriers, RangeTotals and Rows report what they did without it.
	rows := l.Rows()
	l.MarkRequested(events.Intern("c"), 0, 4)
	l.MarkRequested(events.Intern("a"), 0, 9)
	l.Charge(events.Intern("c"), 2, 0)
	if !slices.Equal(l.Rows(), rows) {
		t.Fatalf("marks changed Rows(): %v, was %v", l.Rows(), rows)
	}
	if l.NumQueriers() != 2 {
		t.Fatalf("NumQueriers = %d", l.NumQueriers())
	}
	sums := map[events.Sym]float64{}
	for _, row := range l.Rows() {
		sums[row.Querier] += row.Consumed
	}
	n := 0
	l.RangeTotals(func(q events.Sym, total float64) {
		n++
		if math.Abs(total-sums[q]) > 1e-15 {
			t.Fatalf("total(%s) = %v, rows sum %v", q, total, sums[q])
		}
	})
	if n != 2 {
		t.Fatalf("RangeTotals visited %d queriers", n)
	}
}

// TestLedgerRestore covers the persistence path: refund refusal, and refusal
// of a consumed budget outside [0, ε^G] or not a number.
func TestLedgerRestore(t *testing.T) {
	l := NewLedger(1)
	if err := l.Restore(events.Intern("q"), 2, 0.4); err != nil {
		t.Fatal(err)
	}
	if got := l.Consumed(events.Intern("q"), 2); got != 0.4 {
		t.Fatalf("restored consumed = %v", got)
	}
	// Raising is fine; lowering is a refund and must fail.
	if err := l.Restore(events.Intern("q"), 2, 0.6); err != nil {
		t.Fatal(err)
	}
	if err := l.Restore(events.Intern("q"), 2, 0.5); err == nil {
		t.Fatal("refund accepted")
	}
	// Corrupt rows are refused and leave no slot behind.
	if err := l.Restore(events.Intern("q"), 3, -1); err == nil {
		t.Fatal("negative consumed accepted")
	}
	if err := l.Restore(events.Intern("q"), 4, 1.5); err == nil {
		t.Fatal("over-capacity accepted")
	}
	// A NaN slot compares false against every capacity, so it would admit
	// every later charge.
	if err := l.Restore(events.Intern("q"), 4, math.NaN()); err == nil {
		t.Fatal("NaN consumed accepted")
	}
	for _, row := range l.Rows() {
		if row.Epoch != 2 {
			t.Fatalf("refused restore left row %+v", row)
		}
	}
	if out := l.Charge(events.Intern("q"), 4, 0.6); out != ChargeOK {
		t.Fatalf("slot refused by restore does not charge at ε^G: %v", out)
	}
}

// TestLedgerConcurrentRace hammers one ledger with concurrent charges,
// window charges, marks and reads — the -race coverage for the
// single-mutex design. Consistency invariant: no slot ever exceeds capacity.
func TestLedgerConcurrentRace(t *testing.T) {
	l := NewLedger(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := events.Intern([]string{"a", "b"}[w%2])
			losses := []float64{0.01, 0, 0.02}
			outcomes := make([]ChargeOutcome, len(losses))
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					l.Charge(q, int64(i%20), 0.015)
				case 1:
					l.ChargeWindow(q.String(), int64(i%20), losses, outcomes)
				case 2:
					l.Consumed(q, int64(i%20))
					l.RangeTotals(func(events.Sym, float64) {})
					l.MarkRequested(q, int64(i%20), int64(i%20)+3)
					l.RangeRequested(func(int64, []events.Sym, []float64) {})
				case 3:
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
// overlapping windows, zero and over-budget losses) one ChargeWindowBatch call must produce the outcomes and final
// ledger rows of ChargeWindow applied charge by charge in slice order.
func TestChargeWindowBatchMatchesSequential(t *testing.T) {
	queriers := []events.Sym{events.Intern("nike.com"), events.Intern("adidas.com"), events.Intern("puma.com")}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cap := []float64{0, 0.01, 0.05, 1}[rng.Intn(4)]
		batched, seq := NewLedger(cap), NewLedger(cap)

		for round := 0; round < 5; round++ {
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
				seq.ChargeWindow(ch.Querier.String(), ch.First, ch.Losses, wantOut[j])
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
// increments once per denied charge — and only then. Zero charges and
// granted charges leave it alone.
func TestLedgerDenialsCounter(t *testing.T) {
	l := NewLedger(1)
	if l.Denials() != 0 {
		t.Fatalf("fresh ledger has %d denials", l.Denials())
	}
	if got := l.Charge(events.Intern("q"), 0, 0.8); got != ChargeOK {
		t.Fatalf("first charge = %v", got)
	}
	if got := l.Charge(events.Intern("q"), 0, 0.8); got != ChargeDenied {
		t.Fatalf("over-capacity charge = %v", got)
	}
	if got := l.Charge(events.Intern("q"), 0, 0.8); got != ChargeDenied {
		t.Fatalf("repeat over-capacity charge = %v", got)
	}
	if l.Charge(events.Intern("q"), 1, 0) != ChargeZero {
		t.Fatal("zero charge not ChargeZero")
	}
	if l.Denials() != 2 {
		t.Fatalf("denials = %d, want 2", l.Denials())
	}
}
