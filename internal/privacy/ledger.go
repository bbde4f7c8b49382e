// Package privacy implements the differential-privacy primitives of the
// paper: the budget ledger, which keeps one pure-DP privacy filter (Rogers et
// al., "Privacy Odometers and Filters") per (querier, epoch), the Laplace
// mechanism, the ε-calibration rule used by the evaluation's queriers (§6.1),
// and the composition bounds of the formal analysis (unlinkability, Thm. 2;
// colluding queriers, Thm. 10).
package privacy

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// ChargeOutcome is the per-epoch result of a ledger charge — the three-way
// branch of Listing 1's step 3 plus the zero-loss shortcut.
type ChargeOutcome uint8

const (
	// ChargeZero: no loss was requested; the epoch's slot is untouched and
	// its events survive (the zero-loss optimization of Thm. 4 case 1).
	ChargeZero ChargeOutcome = iota
	// ChargeOK: the loss fit and was deducted; the epoch's events survive.
	ChargeOK
	// ChargeDenied: admitting the loss would overflow the slot's capacity
	// (the Halt outcome of Eq. 3); nothing was deducted. The slot is still
	// initialized: its filter exists once any charge has reached it.
	ChargeDenied
)

// Ledger is a flat budget table: for each querier, in name order, a dense
// array of consumed-ε slots, all sharing one capacity ε^G and one mutex.
// Each slot is the paper's per-epoch privacy filter: it admits losses while
// their running sum stays within ε^G (a relative 1e-9 overshoot counts as
// exact), a denied charge deducts nothing and leaves the slot usable for a
// smaller loss, and the first charge to reach a slot initializes it, denied
// or not.
//
// One table serves both budgeting systems. A device's ledger charges each
// epoch of a report's window on its own (Charge, ChargeWindow): Listing 1.
// The IPA-like baseline keeps one ledger for the whole population and admits
// a query only if every epoch of its window has budget (ChargeAll).
//
// Listing 1 never retires a filter, and neither does the ledger. Lanes grow
// lazily to span exactly the epochs a querier has touched, so memory stays
// proportional to the epochs a device was queried over.
//
// All methods are safe for concurrent use; ChargeWindow performs a whole
// report's check-and-consume sequence under a single lock acquisition.
type Ledger struct {
	mu       sync.Mutex
	capacity float64
	// lanes holds one lane per querier, inline, sorted by querier name and
	// found by binary search: smaller than a map for a device's one or two
	// queriers, and already in the name order every walk yields.
	lanes []ledgerLane
	// denials counts ChargeDenied outcomes over the ledger's lifetime —
	// the budget-drain telemetry behind the hostile-traffic scenarios.
	// It never influences charge outcomes, but it is persisted in
	// snapshots (and restored via RestoreDenials) so the drain telemetry
	// survives crash recovery.
	denials uint64
	// version counts observable mutations — slot initializations, charges,
	// denials, new requested marks, restores. The
	// incremental checkpointer compares it against the version it last
	// captured to decide whether a device's ledger is dirty, so every path
	// that can change Rows(), Denials() or RangeRequested() output must bump
	// it.
	version uint64
}

// ledgerLane is querier q's dense slot array: slots[i] belongs to epoch
// base+i. Lanes live inline in Ledger.lanes, so a *ledgerLane is valid only
// until the ledger's next lane is created.
type ledgerLane struct {
	q     string
	base  int64
	slots []ledgerSlot
	// charged is set once a charge or a restore resolved the lane. A lane
	// holding only requested marks (every window zero-loss, or the budget
	// kept centrally) stays out of NumQueriers and RangeTotals.
	charged bool
}

// ledgerSlot is one (querier, epoch) cell. consumed is the budget consumed
// from the epoch, with untouchedSlot marking an epoch that was never charged
// (no filter was ever created for it). requested sits beside it
// and is not folded into it: a report window covers epochs it requests no
// loss from (ChargeZero), and those must stay untouched — absent from Rows(),
// never initialized — while still counting as requested.
type ledgerSlot struct {
	consumed  float64
	requested bool
}

// untouchedSlot marks a slot whose (querier, epoch) filter was never
// initialized. Consumed loss is never negative, so the sentinel is
// unambiguous.
const untouchedSlot = -1

// LedgerEntry is one initialized (querier, epoch) slot, the unit of the
// dashboard and persistence snapshots.
type LedgerEntry struct {
	Querier  string
	Epoch    int64
	Consumed float64
	Capacity float64
}

// NewLedger returns a ledger whose slots all have budget capacity ε^G.
// It panics if capacity is negative.
func NewLedger(capacity float64) *Ledger {
	if capacity < 0 {
		panic("privacy: negative ledger capacity")
	}
	return &Ledger{capacity: capacity}
}

// Capacity returns the uniform per-slot budget capacity ε^G.
func (l *Ledger) Capacity() float64 { return l.capacity }

// slot returns a pointer to the lane's slot for epoch e, growing the dense
// array in either direction as needed. Growth toward older epochs copies
// (attribution windows reach back a bounded number of epochs); growth toward
// newer epochs is an amortized-O(1) append.
func (ln *ledgerLane) slot(e int64) *ledgerSlot {
	if len(ln.slots) == 0 {
		ln.base = e
		ln.slots = append(ln.slots[:0], ledgerSlot{consumed: untouchedSlot})
		return &ln.slots[0]
	}
	if e < ln.base {
		grow := int(ln.base - e)
		widened := make([]ledgerSlot, grow+len(ln.slots))
		for i := 0; i < grow; i++ {
			widened[i].consumed = untouchedSlot
		}
		copy(widened[grow:], ln.slots)
		ln.slots = widened
		ln.base = e
	}
	for int(e-ln.base) >= len(ln.slots) {
		ln.slots = append(ln.slots, ledgerSlot{consumed: untouchedSlot})
	}
	return &ln.slots[e-ln.base]
}

// find returns the index of querier q's lane and true, or the index a lane
// for q would be inserted at and false. It never creates a lane.
func (l *Ledger) find(q string) (int, bool) {
	return slices.BinarySearchFunc(l.lanes, q, func(ln ledgerLane, q string) int {
		return strings.Compare(ln.q, q)
	})
}

// lane returns (lazily creating, at its place in name order) querier q's
// slot array. The pointer is valid only until the next lane is created,
// which may move every lane; each caller resolves its lane and is done with
// it within one window, before another lane can be created.
func (l *Ledger) lane(q string) *ledgerLane {
	i, ok := l.find(q)
	if !ok {
		l.lanes = slices.Insert(l.lanes, i, ledgerLane{q: q})
	}
	return &l.lanes[i]
}

// chargeSlotLocked is the slot-level check-and-consume on an already-resolved
// lane. Caller holds l.mu.
func (l *Ledger) chargeSlotLocked(ln *ledgerLane, e int64, eps float64) ChargeOutcome {
	// Every path below mutates persisted state: a denial initializes the
	// slot and counts, a success deducts.
	l.version++
	ln.charged = true
	c := &ln.slot(e).consumed
	if *c == untouchedSlot {
		*c = 0
	}
	limit := l.capacity
	// Tolerate float rounding at the boundary: a loss that overshoots the
	// capacity by a relative 1e-9 is treated as exact.
	if *c+eps > limit*(1+1e-9) {
		l.denials++
		return ChargeDenied
	}
	*c += eps
	if *c > limit {
		*c = limit
	}
	return ChargeOK
}

// chargeLocked is the single check-and-consume path. Caller holds l.mu.
func (l *Ledger) chargeLocked(q string, e int64, eps float64) ChargeOutcome {
	if eps < 0 {
		// Privacy loss is never negative; accepting one would refund budget.
		panic("privacy: negative privacy loss")
	}
	if eps == 0 {
		return ChargeZero
	}
	return l.chargeSlotLocked(l.lane(q), e, eps)
}

// chargeWindowLocked is one window's charge sequence with the lane lookup
// hoisted out of the per-epoch loop. The lane resolves on the first epoch
// that actually charges (eps > 0), so lazy lane creation is exactly as
// observable as per-epoch chargeLocked calls.
func (l *Ledger) chargeWindowLocked(q string, first int64, losses []float64, outcomes []ChargeOutcome) {
	var ln *ledgerLane
	for i, eps := range losses {
		switch {
		case eps < 0:
			panic("privacy: negative privacy loss")
		case eps == 0:
			outcomes[i] = ChargeZero
		default:
			if ln == nil {
				ln = l.lane(q)
			}
			outcomes[i] = l.chargeSlotLocked(ln, first+int64(i), eps)
		}
	}
}

// Charge atomically checks whether eps more privacy loss fits into querier
// q's slot for epoch e and, if so, deducts it.
func (l *Ledger) Charge(q string, e int64, eps float64) ChargeOutcome {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chargeLocked(q, e, eps)
}

// ChargeWindow runs the check-and-consume sequence for a whole attribution
// window under one lock acquisition: losses[i] is the loss requested from
// epoch first+i, and outcomes[i] receives the per-epoch result. Epochs are
// charged independently in ascending order, so the outcomes are identical to
// len(losses) individual Charge calls — the batching only amortizes the lock.
// It panics if outcomes is shorter than losses.
func (l *Ledger) ChargeWindow(q string, first int64, losses []float64, outcomes []ChargeOutcome) {
	_ = outcomes[:len(losses)]
	l.mu.Lock()
	defer l.mu.Unlock()
	l.chargeWindowLocked(q, first, losses, outcomes)
}

// WindowCharge is one report's whole-window check-and-consume in a batched
// charge: Losses[i] is the loss requested from epoch First+i by Querier, and
// Outcomes[i] receives the per-epoch result. Losses and Outcomes are caller
// buffers; ChargeWindowBatch only reads Losses and writes Outcomes.
type WindowCharge struct {
	Querier  string
	First    int64
	Losses   []float64
	Outcomes []ChargeOutcome
}

// ChargeWindowBatch runs several reports' check-and-consume sequences under
// a single lock acquisition: charges execute in slice order, each window's
// epochs in ascending order — the exact sequence len(charges) individual
// ChargeWindow calls would produce, so outcomes are bit-identical to the
// one-at-a-time path by construction. This is the generate stage's
// per-device vectorized charge: a device visited by Q same-day queriers
// takes one ledger lock instead of Q.
// It panics if any charge's Outcomes is shorter than its Losses.
func (l *Ledger) ChargeWindowBatch(charges []WindowCharge) {
	for i := range charges {
		_ = charges[i].Outcomes[:len(charges[i].Losses)]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ch := range charges {
		l.chargeWindowLocked(ch.Querier, ch.First, ch.Losses, ch.Outcomes)
	}
}

// ChargeAll is the IPA-like baseline's all-or-nothing admission (§6.1,
// Thm. 3): it deducts eps from querier q's slot for every epoch first through
// last, or from none. The window is walked in ascending order, initializing
// each untouched slot; at the first epoch that cannot take eps the walk stops
// and ChargeAll returns false with nothing deducted, the slots up to and
// including that epoch left initialized. An empty window (last < first) is
// admitted and touches nothing. A refusal rejects a whole query, which the
// caller reports, so it counts no denial. It panics on negative eps.
func (l *Ledger) ChargeAll(q string, first, last int64, eps float64) bool {
	if eps < 0 {
		panic("privacy: negative privacy loss")
	}
	if last < first {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.version++
	ln := l.lane(q)
	ln.charged = true
	for e := first; e <= last; e++ {
		s := ln.slot(e)
		if s.consumed == untouchedSlot {
			s.consumed = 0
		}
		if s.consumed+eps > l.capacity*(1+1e-9) {
			return false
		}
	}
	for e := first; e <= last; e++ {
		c := &ln.slots[e-ln.base].consumed
		*c = min(*c+eps, l.capacity)
	}
	return true
}

// MarkRequested records that a report window of querier q covered epochs
// first through last — the Fig. 4 denominator — whether or not the window
// goes on to charge them (see ledgerSlot). No consumed value changes; the
// version moves once per epoch newly marked.
func (l *Ledger) MarkRequested(q string, first, last int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if first > last {
		return
	}
	ln := l.lane(q)
	if len(ln.slots) == 0 {
		ln.slots = slices.Grow(ln.slots, int(last-first)+1)
	}
	for e := first; e <= last; e++ {
		if s := ln.slot(e); !s.requested {
			s.requested = true
			l.version++
		}
	}
}

// RangeRequested calls fn once per epoch some window was marked over, in
// ascending epoch order, with the queriers that requested it sorted by name
// and, beside each, what that querier has consumed from the epoch (0 for an
// untouched slot). fn runs under the ledger's lock: it must not call back
// into the ledger, and the slices are reused between calls.
func (l *Ledger) RangeRequested(fn func(e int64, queriers []string, consumed []float64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, ln := range l.lanes {
		if len(ln.slots) > 0 {
			lo, hi = min(lo, ln.base), max(hi, ln.base+int64(len(ln.slots)))
		}
	}
	queriers := make([]string, 0, len(l.lanes))
	consumed := make([]float64, 0, len(l.lanes))
	for e := lo; e < hi; e++ {
		queriers, consumed = queriers[:0], consumed[:0]
		for j := range l.lanes {
			ln := &l.lanes[j]
			if i := e - ln.base; i >= 0 && i < int64(len(ln.slots)) && ln.slots[i].requested {
				queriers = append(queriers, ln.q)
				consumed = append(consumed, max(ln.slots[i].consumed, 0)) // untouchedSlot reads as 0
			}
		}
		if len(queriers) > 0 {
			fn(e, queriers, consumed)
		}
	}
}

// Denials returns the number of charges this ledger has denied for lack of
// budget, across all queriers and epochs. Every denial path (Charge,
// ChargeWindow, ChargeWindowBatch) counts here; zero-loss outcomes and
// ChargeAll refusals do not.
func (l *Ledger) Denials() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.denials
}

// RestoreDenials reinstates a persisted denial count. The counter only ever
// grows, so restore keeps the larger of the two — a fresh ledger takes the
// snapshot's count, and replaying an old snapshot over live state never
// loses denials.
func (l *Ledger) RestoreDenials(n uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > l.denials {
		l.denials = n
		l.version++
	}
}

// Version returns the mutation counter: it advances on every observable
// change to the ledger's persisted state (slot initializations, charges,
// denials, new requested marks, restores). The incremental
// checkpointer uses it as the dirty bit — equal versions guarantee identical
// Rows(), Denials() and RangeRequested() output.
func (l *Ledger) Version() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.version
}

// Consumed returns the privacy loss consumed so far by querier q from epoch
// e (0 if the slot was never touched).
func (l *Ledger) Consumed(q string, e int64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	j, ok := l.find(q)
	if !ok {
		return 0
	}
	ln := &l.lanes[j]
	i := e - ln.base
	if i < 0 || int(i) >= len(ln.slots) || ln.slots[i].consumed == untouchedSlot {
		return 0
	}
	return ln.slots[i].consumed
}

// NumQueriers returns the number of queriers with a charged lane (charged or
// restored at least once) — the
// pre-sizing hint for per-querier aggregation maps.
func (l *Ledger) NumQueriers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for j := range l.lanes {
		if l.lanes[j].charged {
			n++
		}
	}
	return n
}

// RangeTotals calls fn once per charged querier with the querier's total
// consumed budget across all epochs. Each total accumulates in ascending
// epoch order — the dense array's natural order — so the float sums are
// deterministic run-to-run; queriers are visited in name order.
func (l *Ledger) RangeTotals(fn func(q string, total float64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for j := range l.lanes {
		ln := &l.lanes[j]
		if !ln.charged {
			continue
		}
		sum := 0.0
		for _, s := range ln.slots {
			if s.consumed != untouchedSlot {
				sum += s.consumed
			}
		}
		fn(ln.q, sum)
	}
}

// Rows returns a snapshot of every initialized slot, sorted by querier then
// epoch — the Fig. 1 dashboard view and the persistence snapshot source. The
// order is the layout's: lanes are in name order, slots in epoch order.
func (l *Ledger) Rows() []LedgerEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var rows []LedgerEntry
	for j := range l.lanes {
		ln := &l.lanes[j]
		for i, s := range ln.slots {
			if s.consumed == untouchedSlot {
				continue
			}
			rows = append(rows, LedgerEntry{
				Querier:  ln.q,
				Epoch:    ln.base + int64(i),
				Consumed: s.consumed,
				Capacity: l.capacity,
			})
		}
	}
	return rows
}

// Restore sets one slot's state from a persisted snapshot row. consumed is
// checked against the ledger's own ε^G — a snapshot carries no capacity, as
// a run under another ε^G is refused by its scenario fingerprint before any
// row is read — and a restore never lowers a slot's consumed budget
// (replaying an old snapshot must never refund privacy loss).
func (l *Ledger) Restore(q string, e int64, consumed float64) error {
	if consumed < 0 || consumed > l.capacity*(1+1e-9) {
		return fmt.Errorf("privacy: corrupt ledger slot %s/%d: %v of %v", q, e, consumed, l.capacity)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.version++
	ln := l.lane(q)
	ln.charged = true
	c := &ln.slot(e).consumed
	if *c != untouchedSlot && *c > consumed {
		return fmt.Errorf("privacy: restore would refund budget for %s epoch %d", q, e)
	}
	*c = min(consumed, l.capacity)
	return nil
}
