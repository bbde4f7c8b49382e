package privacy

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/events"
)

// Requested marks against their old representation. The model is the map the
// engines kept outside the ledger — epoch → set of queriers — hung on
// filterMapRef so the property test, the fuzz target and the exhaustive walk
// below drive budgets, marks and all-or-nothing charges through one
// reference.

// mark replicates the engines' markRequested, and reports whether any
// (epoch, querier) pair is new.
func (r *filterMapRef) mark(q events.Sym, first, last int64) (fresh bool) {
	for e := first; e <= last; e++ {
		if r.requested[e] == nil {
			r.requested[e] = make(map[events.Sym]struct{})
		}
		if _, ok := r.requested[e][q]; !ok {
			r.requested[e][q] = struct{}{}
			fresh = true
		}
	}
	return fresh
}

// markedLedger is what the checks below need of a ledger: *Ledger, or a
// planted bug wrapped around one.
type markedLedger interface {
	MarkRequested(q events.Sym, first, last int64)
	Charge(q events.Sym, e int64, eps float64) ChargeOutcome
	ChargeAll(q events.Sym, first, last int64, eps float64) bool
	Rows() []LedgerEntry
	Denials() uint64
	Version() uint64
	RangeRequested(fn func(e int64, queriers []events.Sym, consumed []float64))
}

// checkMark marks on both sides and holds the ledger to what a mark may
// change: no row, no denial, and the version exactly when the model saw
// something new.
func checkMark(l markedLedger, ref *filterMapRef, q events.Sym, first, last int64) error {
	rows, denials, version := l.Rows(), l.Denials(), l.Version()
	l.MarkRequested(q, first, last)
	fresh := ref.mark(q, first, last)
	switch {
	case !slices.Equal(l.Rows(), rows):
		return fmt.Errorf("MarkRequested(%s, %d, %d) changed Rows(): %v, was %v", q, first, last, l.Rows(), rows)
	case l.Denials() != denials:
		return fmt.Errorf("MarkRequested(%s, %d, %d) changed Denials()", q, first, last)
	case (l.Version() != version) != fresh:
		return fmt.Errorf("MarkRequested(%s, %d, %d): version moved=%t, a mark was new=%t",
			q, first, last, l.Version() != version, fresh)
	}
	return nil
}

// checkRequested holds the whole RangeRequested yield to the model, in order
// and content: ascending epochs, each with its queriers in name order and
// what the reference filter table says each consumed there.
func checkRequested(l markedLedger, ref *filterMapRef) error {
	var got, want []string
	l.RangeRequested(func(e int64, queriers []events.Sym, consumed []float64) {
		got = append(got, fmt.Sprint(e, queriers, consumed))
	})
	for _, e := range slices.Sorted(maps.Keys(ref.requested)) {
		queriers := slices.SortedFunc(maps.Keys(ref.requested[e]), events.Sym.Compare)
		consumed := make([]float64, len(queriers))
		for i, q := range queriers {
			consumed[i] = ref.consumed(q, e)
		}
		want = append(want, fmt.Sprint(e, queriers, consumed))
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("RangeRequested yields %v, model %v", got, want)
	}
	return nil
}

// checkRows holds Rows() to the reference filter table, bitwise.
func checkRows(l markedLedger, ref *filterMapRef) error {
	want := ref.rows()
	n := 0
	for _, byEpoch := range want {
		n += len(byEpoch)
	}
	rows := l.Rows()
	for _, row := range rows {
		if c, ok := want[row.Querier][row.Epoch]; !ok || c != row.Consumed {
			return fmt.Errorf("Rows() has slot %s/%d = %v, reference %v (present=%t)", row.Querier, row.Epoch, row.Consumed, c, ok)
		}
	}
	if len(rows) != n {
		return fmt.Errorf("Rows() has %d slots, reference %d", len(rows), n)
	}
	return nil
}

// walkOp is one step of the exhaustive walk.
type walkOp struct {
	kind string // "mark", "zero", "charge", "all"
	q    events.Sym
	e    int64
}

func (op walkOp) String() string { return fmt.Sprintf("%s(%s,%d)", op.kind, op.q, op.e) }

// walkQueriers are the walk's two queriers, interned against name order.
var walkQueriers = reverseInterned("a.walk", "b.walk")

// walkMarks runs every sequence of at most depth ops over {mark, zero-loss
// charge, positive charge, all-or-nothing charge} × 2 queriers × 3 epochs
// against the model and returns the first sequence on which the ledger
// newLedger builds departs from it (nil if none does), with the number of
// sequences run. A mark and an all-or-nothing charge cover the two-epoch
// window ending at their epoch, so windows reach below epoch 0 and grow lanes
// toward older epochs; a positive charge is 0.6 of a capacity of 1, so a
// repeat is a denial, and so is an all-or-nothing charge over a window one of
// whose epochs already holds 0.6. Both budgeting systems' admission rules are
// thus walked over one alphabet. Every prefix of a sequence is itself a
// sequence of the walk, so outcomes are compared at every op and the full
// state — rows, denials, the RangeRequested yield — after the last.
func walkMarks(newLedger func() markedLedger, depth int) (failure error, sequences int) {
	var ops []walkOp
	for e := int64(0); e < 3; e++ {
		for _, q := range walkQueriers {
			for _, kind := range []string{"mark", "zero", "charge", "all"} {
				ops = append(ops, walkOp{kind, q, e})
			}
		}
	}
	run := func(seq []walkOp) error {
		l, ref := newLedger(), newFilterMapRef(1)
		denials := uint64(0)
		for _, op := range seq {
			switch op.kind {
			case "mark":
				if err := checkMark(l, ref, op.q, op.e-1, op.e); err != nil {
					return err
				}
			case "all":
				got, want := l.ChargeAll(op.q, op.e-1, op.e, 0.6), ref.all(op.q, op.e-1, op.e, 0.6)
				if got != want {
					return fmt.Errorf("%v = %t, reference %t", op, got, want)
				}
			case "zero", "charge":
				eps := 0.0
				if op.kind == "charge" {
					eps = 0.6
				}
				got, want := l.Charge(op.q, op.e, eps), ref.charge(op.q, op.e, eps)
				if got != want {
					return fmt.Errorf("%v = %v, reference %v", op, got, want)
				}
				if want == ChargeDenied {
					denials++
				}
			}
		}
		if l.Denials() != denials {
			return fmt.Errorf("Denials() = %d, reference %d", l.Denials(), denials)
		}
		if err := checkRows(l, ref); err != nil {
			return err
		}
		return checkRequested(l, ref)
	}
	var seq []walkOp
	var walk func()
	walk = func() {
		if len(seq) > 0 {
			sequences++
			if err := run(seq); err != nil && failure == nil {
				failure = fmt.Errorf("%v: %w", seq, err)
			}
		}
		if len(seq) == depth || failure != nil {
			return
		}
		for _, op := range ops {
			seq = append(seq, op)
			walk()
			seq = seq[:len(seq)-1]
		}
	}
	walk()
	return failure, sequences
}

// TestLedgerMarksExhaustive is the small-world check of the requested marks
// and of both admission rules: every interleaving of mark, per-epoch charge
// and all-or-nothing charge at small bounds against the maps the ledger
// replaced (the seeded property test and the fuzz target are its large-bound
// complement).
func TestLedgerMarksExhaustive(t *testing.T) {
	depth := 4
	if testing.Short() {
		depth = 3
	}
	failure, n := walkMarks(func() markedLedger { return NewLedger(1) }, depth)
	if failure != nil {
		t.Fatal(failure)
	}
	t.Logf("%d sequences", n)
}

// The planted bugs: a ledger with one wrong behaviour wrapped around the real
// one. They live here, not behind a switch in ledger.go — the walk is what
// they test, and it sees them through the same interface.

// cell returns querier q's cell for epoch e, which its lane must cover.
// Caller holds the lock.
func (l *Ledger) cell(q events.Sym, e int64) *float64 {
	i, _ := l.find(q)
	hs, cells, _ := l.table()
	return &cells[hs[i].cell(e)]
}

// markInitialisesSlot marks by way of the slot value: a requested epoch comes
// out initialized at 0, as if a filter had been created for it.
type markInitialisesSlot struct{ *Ledger }

func (m markInitialisesSlot) MarkRequested(q events.Sym, first, last int64) {
	m.Ledger.MarkRequested(q, first, last)
	m.lock()
	defer m.unlock()
	for e := first; e <= last; e++ {
		if c := m.cell(q, e); *c == untouchedSlot {
			*c = 0
		}
	}
}

// denyChargesPrefix refuses an all-or-nothing window only after deducting
// the loss from the epochs before the short one.
type denyChargesPrefix struct{ *Ledger }

func (d denyChargesPrefix) ChargeAll(q events.Sym, first, last int64, eps float64) bool {
	if d.Ledger.ChargeAll(q, first, last, eps) {
		return true
	}
	d.lock()
	defer d.unlock()
	for e := first; e <= last; e++ {
		c := d.cell(q, e)
		if *c+eps > d.capacity*(1+1e-9) {
			break
		}
		*c += eps
	}
	return false
}

// rejectLeavesUntouched refuses an all-or-nothing window without
// initializing the slots its walk reached.
type rejectLeavesUntouched struct{ *Ledger }

func (r rejectLeavesUntouched) ChargeAll(q events.Sym, first, last int64, eps float64) bool {
	before := r.Rows()
	if r.Ledger.ChargeAll(q, first, last, eps) {
		return true
	}
	r.lock()
	defer r.unlock()
	for e := first; e <= last; e++ {
		if !slices.ContainsFunc(before, func(row LedgerEntry) bool { return row.Querier == q && row.Epoch == e }) {
			*r.cell(q, e) = untouchedSlot
		}
	}
	return false
}

// shiftMarksOnly opens room in the block as if open moved the marks past
// the insertion point but not the cells: after an op that grew or created a
// lane ahead of another, every cell from the insertion point on holds what
// that position held before, and the cells past the old end are untouched.
type shiftMarksOnly struct{ *Ledger }

func (s shiftMarksOnly) around(op func()) {
	s.lock()
	before := slices.Clone(s.headers())
	_, cells, _ := s.table()
	old := slices.Clone(cells)
	s.unlock()
	op()
	s.lock()
	defer s.unlock()
	hs, cells, _ := s.table()
	at := len(old)
	for _, h := range before {
		i, _ := s.find(h.q)
		if int64(hs[i].off)-int64(hs[i].base) != int64(h.off)-int64(h.base) {
			at = min(at, int(h.off))
		}
	}
	if at == len(old) {
		return // nothing moved: the lane grew or was added at the end
	}
	copy(cells[at:], old[at:])
	for x := len(old); x < len(cells); x++ {
		cells[x] = untouchedSlot
	}
}

func (s shiftMarksOnly) MarkRequested(q events.Sym, first, last int64) {
	s.around(func() { s.Ledger.MarkRequested(q, first, last) })
}

func (s shiftMarksOnly) Charge(q events.Sym, e int64, eps float64) (out ChargeOutcome) {
	s.around(func() { out = s.Ledger.Charge(q, e, eps) })
	return out
}

func (s shiftMarksOnly) ChargeAll(q events.Sym, first, last int64, eps float64) (ok bool) {
	s.around(func() { ok = s.Ledger.ChargeAll(q, first, last, eps) })
	return ok
}

// TestLedgerMarksWalkCatchesPlantedBugs fails if the exhaustive walk passes
// a planted bug: a walk that cannot tell it from the ledger checks nothing.
func TestLedgerMarksWalkCatchesPlantedBugs(t *testing.T) {
	for name, wrap := range map[string]func(*Ledger) markedLedger{
		"mark-initialises-the-slot":                  func(l *Ledger) markedLedger { return markInitialisesSlot{l} },
		"deny-charges-the-prefix":                    func(l *Ledger) markedLedger { return denyChargesPrefix{l} },
		"rejected-window-leaves-its-slots-untouched": func(l *Ledger) markedLedger { return rejectLeavesUntouched{l} },
		"growth-shifts-the-marks-without-the-cells":  func(l *Ledger) markedLedger { return shiftMarksOnly{l} },
	} {
		failure, _ := walkMarks(func() markedLedger { return wrap(NewLedger(1)) }, 3)
		if failure == nil {
			t.Errorf("planted bug %s passes the exhaustive walk", name)
		} else {
			t.Logf("planted bug %s: %v", name, failure)
		}
	}
}
