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
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/events"
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

// Table is a flat budget table: for each querier, in name order, a dense
// run of consumed-ε cells, one per epoch. Each cell is the paper's
// per-epoch privacy filter: it admits losses while their running sum stays
// within a capacity ε^G (a relative 1e-9 overshoot counts as exact), a
// denied charge deducts nothing and leaves the cell usable for a smaller
// loss, and the first charge to reach a cell initializes it, denied or not.
//
// A table holds no capacity: every cell of a device's table has the same
// ε^G, which the device's fleet keeps once for all of them, so the methods
// that charge, restore or list cells take it from the caller. A device's
// table charges each epoch of a report's window on its own
// (ChargeWindowBatch): Listing 1. Ledger binds a table to its capacity for
// the IPA-like baseline, which keeps one for the whole population and admits
// a query only if every epoch of its window has budget (ChargeAll).
//
// Listing 1 never retires a filter, and neither does the table. Lanes grow
// lazily to span the epochs a querier's windows touched, so memory stays
// proportional to the epochs a device was queried over.
//
// The zero Table is empty and ready for use, which is how core.Device holds
// its table by value. All methods are safe for concurrent use: each takes
// the table's own lock once, so ChargeWindowBatch performs several reports'
// check-and-consume sequences under a single acquisition.
type Table struct {
	// block is the first word of the whole table, one pointer-free array
	// of room words, so a table's storage is a single object the collector
	// never scans: the lane headers in name order, then every lane's
	// cells, lane after lane in header order, then one requested mark byte
	// per cell, in the cells' order (see carve). It grows with headroom
	// (open), so an extension within its room allocates nothing, and Trim
	// gives the headroom back. Held as a pointer and a 32-bit room rather
	// than a slice, the block costs a device 12 bytes, not 24: its length
	// follows from the headers.
	block *uint64
	// vlock is the table's lock in bit 0 and its version in the bits
	// above. The version counts observable mutations — slot
	// initializations, charges, denials, new requested marks, restores.
	// The incremental checkpointer compares it against the version it last
	// captured to decide whether a device's table is dirty, so every path
	// that can change Rows(), Denials() or RangeRequested() output must
	// bump it. A lock bit where a sync.Mutex would take another 8 bytes:
	// the engines visit a device from one goroutine at a time, so a table
	// is seldom waited for, and a waiter yields instead of parking.
	vlock atomic.Uint64
	// denials counts ChargeDenied outcomes over the table's lifetime —
	// the budget-drain telemetry behind the hostile-traffic scenarios.
	// It never influences charge outcomes, but it is persisted in
	// snapshots (and restored via RestoreDenials) so the drain telemetry
	// survives crash recovery.
	denials uint64
	// room is the block's capacity in words.
	room uint32
	// lanes is the number of lane headers at the front of block.
	lanes uint32
}

// lock takes the table's lock bit, yielding while another goroutine holds
// it.
func (t *Table) lock() {
	for {
		if v := t.vlock.Load(); v&1 == 0 && t.vlock.CompareAndSwap(v, v|1) {
			return
		}
		runtime.Gosched()
	}
}

// unlock clears the lock bit, which the caller holds.
func (t *Table) unlock() { t.vlock.Add(^uint64(0)) }

// bump counts one observable mutation. Caller holds the lock.
func (t *Table) bump() { t.vlock.Add(2) }

// Ledger is a Table bound to one capacity ε^G for every cell: the IPA-like
// baseline's central budget, one ledger for the whole population. All
// methods are safe for concurrent use.
type Ledger struct {
	Table
	capacity float64
}

// laneHeader is querier q's lane: its cells are cells[off : off+len()], and
// cell i belongs to epoch base+i. A lane is never empty. Lanes are found by
// symbol but kept in name order (Sym.Compare), never in symbol order:
// symbol numbers follow interning order, and every walk must yield names in
// order.
type laneHeader struct {
	q    events.Sym
	base int32
	off  uint32
	// n is the cell count in its low 31 bits and laneCharged on top.
	n uint32
}

// laneCharged is set in laneHeader.n once a charge or a restore resolved
// the lane. A lane holding only requested marks (every window zero-loss, or
// the budget kept centrally) stays out of NumQueriers and RangeTotals.
const laneCharged = 1 << 31

func (h *laneHeader) len() int         { return int(h.n &^ laneCharged) }
func (h *laneHeader) charged() bool    { return h.n&laneCharged != 0 }
func (h *laneHeader) end() int64       { return int64(h.base) + int64(h.len()) }
func (h *laneHeader) cell(e int64) int { return int(h.off) + int(e-int64(h.base)) }

// headerWords is a lane header's size in block words.
const headerWords = int(unsafe.Sizeof(laneHeader{}) / 8)

// untouchedSlot marks a cell whose (querier, epoch) filter was never
// initialized. Consumed loss is never negative, so the sentinel is
// unambiguous. A requested mark sits beside the cell, not in it: a report
// window covers epochs it requests no loss from (ChargeZero), and those must
// stay untouched — absent from Rows(), never initialized — while still
// counting as requested.
const untouchedSlot = -1

// blockWords is the block length a table of lanes headers and cells cells
// takes: the mark bytes round up to whole words.
func blockWords(lanes, cells int) int { return lanes*headerWords + cells + (cells+7)/8 }

// carve views block as a table of lanes headers and cells cells: the
// headers, the consumed cells and the mark bytes, each region following the
// last. The views alias block and are valid until it next moves.
func carve(block []uint64, lanes, cells int) ([]laneHeader, []float64, []byte) {
	h := lanes * headerWords
	return wordsAs[laneHeader](block[:h], lanes),
		wordsAs[float64](block[h:h+cells], cells),
		wordsAs[byte](block[h+cells:], cells)
}

// wordsAs views the first n values of type T held in w. Every T the ledger
// stores is pointer-free, so the block stays a noscan object.
func wordsAs[T any](w []uint64, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&w[0])), n)
}

// words views the block's whole room.
func (t *Table) words() []uint64 { return unsafe.Slice(t.block, t.room) }

// setBlock makes w, which holds the table, its block.
func (t *Table) setBlock(w []uint64) { t.block, t.room = &w[0], uint32(len(w)) }

// headers views the lane headers at the block's front.
func (t *Table) headers() []laneHeader { return wordsAs[laneHeader](t.words(), int(t.lanes)) }

// cells returns the number of cells in the block: the last lane's end.
func (t *Table) cells() int {
	hs := t.headers()
	if len(hs) == 0 {
		return 0
	}
	return int(hs[len(hs)-1].off) + hs[len(hs)-1].len()
}

// table views the table's block (see carve).
func (t *Table) table() ([]laneHeader, []float64, []byte) {
	return carve(t.words(), int(t.lanes), t.cells())
}

// open makes room for k untouched, unmarked cells at cell index at, and,
// when insert is set, for a zero lane header at index i; lanes after i move
// their offsets by k. The caller fills in lane i. A table's first block is
// allocated to fit (most devices never grow theirs); a block too small for
// the result is replaced by one with a quarter of its room more than the
// result needs, so a lane growing an epoch at a time reallocates O(log)
// times.
func (t *Table) open(i int, insert bool, at, k int) {
	lanes, cells := int(t.lanes), t.cells()
	lanes2, cells2 := lanes, cells+k
	if insert {
		lanes2++
	}
	src := t.words()
	dst := src
	if need := blockWords(lanes2, cells2); need > len(dst) {
		dst = make([]uint64, evenWords(need+len(dst)/4))
	}
	sh, sc, sm := carve(src, lanes, cells)
	dh, dc, dm := carve(dst, lanes2, cells2)
	// Every region moves toward the block's end or stays put, so moving
	// the marks, then the cells, then the headers — each one's tail before
	// its head — never overwrites a word still to be read when dst is the
	// block itself.
	copy(dm[at+k:], sm[at:])
	copy(dm[:at], sm[:at])
	clear(dm[at : at+k])
	copy(dc[at+k:], sc[at:])
	copy(dc[:at], sc[:at])
	for x := at; x < at+k; x++ {
		dc[x] = untouchedSlot
	}
	if insert {
		copy(dh[i+1:], sh[i:])
		copy(dh[:i], sh[:i])
		dh[i] = laneHeader{}
	} else {
		copy(dh, sh)
	}
	for j := i + 1; j < lanes2; j++ {
		dh[j].off += uint32(k)
	}
	t.setBlock(dst)
	t.lanes = uint32(lanes2)
}

// evenWords rounds n words up to whole 16-byte units: the room a small
// allocation takes anyway.
func evenWords(n int) int { return (n + 1) &^ 1 }

// Trim moves the block to one without headroom, when that frees at least
// one 16-byte unit: the fleet trims every device once report generation is
// over and its tables stop growing. Nothing observable changes, the version
// included.
func (t *Table) Trim() {
	t.lock()
	defer t.unlock()
	need := evenWords(blockWords(int(t.lanes), t.cells()))
	if need == 0 || need >= int(t.room) {
		return
	}
	w := make([]uint64, need)
	copy(w, t.words())
	t.setBlock(w)
}

// find returns the index of querier q's lane and true, or false. It never
// creates a lane.
func (t *Table) find(q events.Sym) (int, bool) {
	hs := t.headers()
	for i := range hs {
		if hs[i].q == q {
			return i, true
		}
	}
	return 0, false
}

// lane returns the index of querier q's lane, grown to cover epochs first
// through last, creating it at its place in name order if q has none. A
// lane index stays valid until the next lane is created.
func (t *Table) lane(q events.Sym, first, last int64) int {
	if i, ok := t.find(q); ok {
		t.cover(i, first, last)
		return i
	}
	hs := t.headers()
	i := 0
	for i < len(hs) && hs[i].q.Compare(q) < 0 {
		i++
	}
	at := t.cells()
	if i < len(hs) {
		at = int(hs[i].off)
	}
	h := laneHeader{q: q, base: epoch32(first), off: uint32(at), n: uint32(last + 1 - first)}
	t.open(i, true, at, h.len())
	t.headers()[i] = h
	return i
}

// cover grows lane i, toward older epochs, newer ones or both, until it
// spans first through last.
func (t *Table) cover(i int, first, last int64) {
	h := &t.headers()[i]
	base, end := int64(h.base), h.end()
	if first < base {
		first32, k := epoch32(first), int(base-first)
		t.open(i, false, int(h.off), k)
		h = &t.headers()[i]
		h.base, h.n = first32, h.n+uint32(k)
	}
	if last >= end {
		k := int(last + 1 - end)
		t.open(i, false, int(h.off)+h.len(), k)
		h = &t.headers()[i]
		h.n += uint32(k)
	}
}

// epoch32 is e as a lane base. An epoch is a week or so of days since the
// trace began, and decoders read epochs as int32: one beyond is a bug.
func epoch32(e int64) int32 {
	if e != int64(int32(e)) {
		panic(fmt.Sprintf("privacy: epoch %d outside the ledger's int32 range", e))
	}
	return int32(e)
}

// LedgerEntry is one initialized (querier, epoch) slot, the unit of the
// dashboard and persistence snapshots.
type LedgerEntry struct {
	Querier  events.Sym
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

// chargeWindowLocked is one window's charge sequence against cells of
// capacity limit. The lane resolves once, covering the epochs from the first
// that charges (eps > 0) to the last, so a window of zero losses creates no
// lane and a zero-loss epoch between two charged ones gets an untouched
// cell. Caller holds the lock.
func (t *Table) chargeWindowLocked(limit float64, q events.Sym, first int64, losses []float64, outcomes []ChargeOutcome) {
	lo, hi := -1, -1
	for x, eps := range losses {
		switch {
		case eps < 0:
			panic("privacy: negative privacy loss")
		case eps == 0:
			outcomes[x] = ChargeZero
		case lo < 0:
			lo, hi = x, x
		default:
			hi = x
		}
	}
	if lo < 0 {
		return
	}
	i := t.lane(q, first+int64(lo), first+int64(hi))
	hs, cells, _ := t.table()
	hs[i].n |= laneCharged
	for x, c := lo, cells[hs[i].cell(first+int64(lo)):]; x <= hi; x, c = x+1, c[1:] {
		eps := losses[x]
		if eps == 0 {
			continue
		}
		// Every path below mutates persisted state: a denial initializes
		// the cell and counts, a success deducts.
		t.bump()
		if c[0] == untouchedSlot {
			c[0] = 0
		}
		// Tolerate float rounding at the boundary: a loss that overshoots
		// the capacity by a relative 1e-9 is treated as exact.
		if c[0]+eps > limit*(1+1e-9) {
			t.denials++
			outcomes[x] = ChargeDenied
			continue
		}
		c[0] = min(c[0]+eps, limit)
		outcomes[x] = ChargeOK
	}
}

// ChargeWindow runs the check-and-consume sequence for a whole attribution
// window of querier q, named, under one lock acquisition: losses[i] is the
// loss requested from epoch first+i, and outcomes[i] receives the per-epoch
// result. Epochs are charged independently in ascending order. It is
// ChargeWindowBatch for one window, interning q first (without a lock once
// the name is known).
// It panics if outcomes is shorter than losses.
func (l *Ledger) ChargeWindow(q string, first int64, losses []float64, outcomes []ChargeOutcome) {
	ch := [1]WindowCharge{{Querier: events.Intern(q), First: first, Losses: losses, Outcomes: outcomes}}
	l.ChargeWindowBatch(ch[:])
}

// WindowCharge is one report's whole-window check-and-consume in a batched
// charge: Losses[i] is the loss requested from epoch First+i by Querier, and
// Outcomes[i] receives the per-epoch result. Losses and Outcomes are caller
// buffers; ChargeWindowBatch only reads Losses and writes Outcomes.
type WindowCharge struct {
	Querier  events.Sym
	First    int64
	Losses   []float64
	Outcomes []ChargeOutcome
}

// ChargeWindowBatch runs several reports' check-and-consume sequences under
// a single lock acquisition, against cells of the given capacity: charges
// execute in slice order, each window's epochs in ascending order — the
// exact sequence len(charges) one-window batches would produce, so outcomes
// are bit-identical to the one-at-a-time path by construction. This is the
// generate stage's per-device vectorized charge: a device visited by Q
// same-day queriers takes one lock instead of Q.
// It panics if any charge's Outcomes is shorter than its Losses.
func (t *Table) ChargeWindowBatch(capacity float64, charges []WindowCharge) {
	for i := range charges {
		_ = charges[i].Outcomes[:len(charges[i].Losses)]
	}
	t.lock()
	defer t.unlock()
	for _, ch := range charges {
		t.chargeWindowLocked(capacity, ch.Querier, ch.First, ch.Losses, ch.Outcomes)
	}
}

// ChargeWindowBatch is Table.ChargeWindowBatch at the ledger's capacity.
func (l *Ledger) ChargeWindowBatch(charges []WindowCharge) {
	l.Table.ChargeWindowBatch(l.capacity, charges)
}

// ChargeAll is the IPA-like baseline's all-or-nothing admission (§6.1,
// Thm. 3): it deducts eps from querier q's slot for every epoch first through
// last, or from none. The window is walked in ascending order, initializing
// each untouched slot; at the first epoch that cannot take eps the walk stops
// and ChargeAll returns false with nothing deducted, the slots up to and
// including that epoch left initialized. An empty window (last < first) is
// admitted and touches nothing. A refusal rejects a whole query, which the
// caller reports, so it counts no denial. It panics on negative eps.
func (l *Ledger) ChargeAll(q events.Sym, first, last int64, eps float64) bool {
	if eps < 0 {
		panic("privacy: negative privacy loss")
	}
	if last < first {
		return true
	}
	l.lock()
	defer l.unlock()
	l.bump()
	i := l.lane(q, first, last)
	hs, cells, _ := l.table()
	hs[i].n |= laneCharged
	window := cells[hs[i].cell(first) : hs[i].cell(last)+1]
	for x := range window {
		if window[x] == untouchedSlot {
			window[x] = 0
		}
		if window[x]+eps > l.capacity*(1+1e-9) {
			return false
		}
	}
	for x := range window {
		window[x] = min(window[x]+eps, l.capacity)
	}
	return true
}

// MarkRequested records that a report window of querier q covered epochs
// first through last — the Fig. 4 denominator — whether or not the window
// goes on to charge them (see untouchedSlot). No consumed value changes; the
// version moves once per epoch newly marked.
func (t *Table) MarkRequested(q events.Sym, first, last int64) {
	if first > last {
		return
	}
	t.lock()
	defer t.unlock()
	i := t.lane(q, first, last)
	hs, _, marks := t.table()
	window := marks[hs[i].cell(first) : hs[i].cell(last)+1]
	for x := range window {
		if window[x] == 0 {
			window[x] = 1
			t.bump()
		}
	}
}

// RangeRequested calls fn once per epoch some window was marked over, in
// ascending epoch order, with the queriers that requested it sorted by name
// and, beside each, what that querier has consumed from the epoch (0 for an
// untouched slot). fn runs under the table's lock: it must not call back
// into the table, and the slices are reused between calls.
func (t *Table) RangeRequested(fn func(e int64, queriers []events.Sym, consumed []float64)) {
	t.lock()
	defer t.unlock()
	hs, cells, marks := t.table()
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for j := range hs {
		lo, hi = min(lo, int64(hs[j].base)), max(hi, hs[j].end())
	}
	queriers := make([]events.Sym, 0, len(hs))
	consumed := make([]float64, 0, len(hs))
	for e := lo; e < hi; e++ {
		queriers, consumed = queriers[:0], consumed[:0]
		for j := range hs {
			h := &hs[j]
			if e < int64(h.base) || e >= h.end() {
				continue
			}
			if x := h.cell(e); marks[x] != 0 {
				queriers = append(queriers, h.q)
				consumed = append(consumed, max(cells[x], 0)) // untouchedSlot reads as 0
			}
		}
		if len(queriers) > 0 {
			fn(e, queriers, consumed)
		}
	}
}

// RangeLanes calls fn once per querier lane, in name order, with the lane's
// first epoch, its cells' consumed budgets — negative for a slot never
// initialized — and its requested marks, non-zero where some window was
// marked over the cell's epoch; cell i belongs to epoch base+i. It is the
// whole persisted state of the table but the denial counter, in its layout's
// order. fn runs under the table's lock: it must not call back into the
// table, and the slices alias the table and are valid only during the call.
func (t *Table) RangeLanes(fn func(q events.Sym, base int64, consumed []float64, marks []byte)) {
	t.lock()
	defer t.unlock()
	hs, cells, marks := t.table()
	for j := range hs {
		h := &hs[j]
		lo, hi := int(h.off), int(h.off)+h.len()
		fn(h.q, int64(h.base), cells[lo:hi:hi], marks[lo:hi:hi])
	}
}

// Denials returns the number of charges this table has denied for lack of
// budget, across all queriers and epochs. Every denial path (ChargeWindow,
// ChargeWindowBatch) counts here; zero-loss outcomes and ChargeAll refusals
// do not.
func (t *Table) Denials() uint64 {
	t.lock()
	defer t.unlock()
	return t.denials
}

// RestoreDenials reinstates a persisted denial count. The counter only ever
// grows, so restore keeps the larger of the two — a fresh table takes the
// snapshot's count, and replaying an old snapshot over live state never
// loses denials.
func (t *Table) RestoreDenials(n uint64) {
	t.lock()
	defer t.unlock()
	if n > t.denials {
		t.denials = n
		t.bump()
	}
}

// Version returns the mutation counter: it advances on every observable
// change to the table's persisted state (slot initializations, charges,
// denials, new requested marks, restores). The incremental
// checkpointer uses it as the dirty bit — equal versions guarantee identical
// Rows(), Denials() and RangeRequested() output.
func (t *Table) Version() uint64 {
	t.lock()
	defer t.unlock()
	return t.vlock.Load() >> 1
}

// Consumed returns the privacy loss consumed so far by querier q from epoch
// e (0 if the slot was never touched).
func (t *Table) Consumed(q events.Sym, e int64) float64 {
	t.lock()
	defer t.unlock()
	i, ok := t.find(q)
	if !ok {
		return 0
	}
	hs, cells, _ := t.table()
	if h := &hs[i]; e >= int64(h.base) && e < h.end() {
		return max(cells[h.cell(e)], 0) // untouchedSlot reads as 0
	}
	return 0
}

// NumQueriers returns the number of queriers with a charged lane (charged or
// restored at least once) — the
// pre-sizing hint for per-querier aggregation maps.
func (t *Table) NumQueriers() int {
	t.lock()
	defer t.unlock()
	n := 0
	for _, h := range t.headers() {
		if h.charged() {
			n++
		}
	}
	return n
}

// RangeTotals calls fn once per charged querier with the querier's total
// consumed budget across all epochs. Each total accumulates in ascending
// epoch order — the lane's natural order — so the float sums are
// deterministic run-to-run; queriers are visited in name order.
func (t *Table) RangeTotals(fn func(q events.Sym, total float64)) {
	t.lock()
	defer t.unlock()
	hs, cells, _ := t.table()
	for j := range hs {
		h := &hs[j]
		if !h.charged() {
			continue
		}
		sum := 0.0
		for _, c := range cells[h.off : int(h.off)+h.len()] {
			if c != untouchedSlot {
				sum += c
			}
		}
		fn(h.q, sum)
	}
}

// Rows returns a snapshot of every initialized slot, each with the given
// capacity, sorted by querier then epoch — the Fig. 1 dashboard view and the
// persistence snapshot source. The order is the layout's: lanes are in name
// order, cells in epoch order.
func (t *Table) Rows(capacity float64) []LedgerEntry {
	t.lock()
	defer t.unlock()
	hs, cells, _ := t.table()
	var rows []LedgerEntry
	for j := range hs {
		h := &hs[j]
		for x, c := range cells[h.off : int(h.off)+h.len()] {
			if c == untouchedSlot {
				continue
			}
			rows = append(rows, LedgerEntry{
				Querier:  h.q,
				Epoch:    int64(h.base) + int64(x),
				Consumed: c,
				Capacity: capacity,
			})
		}
	}
	return rows
}

// Restore sets one slot's state from a persisted snapshot row. consumed is
// checked against the cells' capacity ε^G — a snapshot carries no capacity,
// as a run under another ε^G is refused by its scenario fingerprint before
// any row is read — and a restore never lowers a slot's consumed budget
// (replaying an old snapshot must never refund privacy loss).
func (t *Table) Restore(capacity float64, q events.Sym, e int64, consumed float64) error {
	if !(consumed >= 0) || consumed > capacity*(1+1e-9) { // NaN included: it would never deny
		return fmt.Errorf("privacy: corrupt ledger slot %s/%d: %v of %v", q, e, consumed, capacity)
	}
	t.lock()
	defer t.unlock()
	t.bump()
	i := t.lane(q, e, e)
	hs, cells, _ := t.table()
	hs[i].n |= laneCharged
	c := &cells[hs[i].cell(e)]
	if *c != untouchedSlot && *c > consumed {
		return fmt.Errorf("privacy: restore would refund budget for %s epoch %d", q, e)
	}
	*c = min(consumed, capacity)
	return nil
}

// Rows is Table.Rows at the ledger's capacity.
func (l *Ledger) Rows() []LedgerEntry { return l.Table.Rows(l.capacity) }

// Restore is Table.Restore at the ledger's capacity.
func (l *Ledger) Restore(q events.Sym, e int64, consumed float64) error {
	return l.Table.Restore(l.capacity, q, e, consumed)
}
