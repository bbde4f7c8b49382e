package privacy

import (
	"math"
	"testing"

	"repro/internal/events"
)

// refRestore extends the ledger_test reference model with Ledger.Restore's
// semantics: refuse a consumed budget outside [0, ε^G] and refund attempts;
// clamp consumed to capacity.
func (r *filterMapRef) restore(q events.Sym, e int64, consumed float64) bool {
	if consumed < 0 || consumed > r.capacity*(1+1e-9) {
		return false
	}
	f := r.filter(q, e)
	if f.consumed > consumed {
		return false // refund
	}
	f.consumed = min(consumed, r.capacity)
	return true
}

// FuzzLedgerChargeWindow decodes arbitrary bytes into an operation sequence
// — single charges, whole-window charges, all-or-nothing window charges (the
// IPA-like admission rule), requested marks, and snapshot restores (the
// checkpoint/recovery path, with rows above ε^G, which both sides must
// refuse) — and drives the flat Ledger and the map-of-filters reference model
// through it in lockstep. Every outcome, every read, and the full final slot
// table and RangeRequested yield must match bitwise; a mark must change no
// budget state and move the version exactly when it is new, and an
// all-or-nothing refusal counts no denial. This is the property test from
// ledger_test.go with fuzzer-chosen interleavings instead of a fixed random
// schedule: the charge/mark/restore orderings a crash-recovery cycle produces
// are exactly the ones hand-picked schedules miss.
func FuzzLedgerChargeWindow(f *testing.F) {
	// Seeds: a plain charge run; charges around a window charge;
	// restore-then-charge (recovery); over-capacity restore and refund
	// attempts; window charges with zero-loss epochs.
	f.Add([]byte{2, 0, 200, 50, 255, 30})
	f.Add([]byte{2, 0, 0, 28, 100, 1, 120, 180, 2, 200})
	f.Add([]byte{3, 2, 10, 120, 200, 0, 10, 60, 100, 10, 255})
	f.Add([]byte{1, 2, 40, 5, 255, 2, 40, 5, 100, 2, 40, 5, 20})
	f.Add([]byte{0, 1, 20, 3, 0, 128, 0, 255, 64})
	// Marks around charges: a window marked, charged in part, then marked
	// again below and across it.
	f.Add([]byte{2, 3, 0, 12, 5, 1, 0, 12, 3, 200, 0, 100, 3, 0, 11, 3, 3, 0, 13, 6})
	// All-or-nothing windows: one admitted, one refused at its last epoch
	// after initializing the two before it, one empty.
	f.Add([]byte{2, 0x81, 0, 10, 3, 117, 0x81, 0, 8, 3, 117, 0x85, 1, 12, 0, 0})
	// A lane created between two that already hold cells and marks, by a
	// mark reaching below both and by a charge: the block shifts the
	// outer lane's cells and marks together.
	f.Add([]byte{2, 3, 0, 30, 3, 0, 0, 31, 200, 3, 2, 30, 3, 0, 2, 32, 100, 3, 1, 28, 6, 0, 1, 30, 50})
	f.Add([]byte{2, 0, 0, 30, 200, 3, 2, 29, 2, 0, 1, 31, 60, 0x81, 1, 27, 5, 40, 3, 1, 26, 6})

	// Symbols follow interning order, which these names take in reverse:
	// a lane placed by symbol number walks backwards.
	queriers := reverseInterned("adidas.fuzz", "criteo.fuzz", "nike.fuzz")

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// The first byte picks the shared capacity ε^G (including the
		// degenerate 0, where every positive charge denies). The op stream
		// is capped so a single exec stays microseconds — interleaving
		// coverage comes from many executions, not long ones.
		capacity := []float64{0, 0.01, 1, 5}[int(data[0])%4]
		data = data[1:]
		if len(data) > 256 {
			data = data[:256]
		}
		l := NewLedger(capacity)
		ref := newFilterMapRef(capacity)

		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		eps := func(b byte) float64 { return float64(b) / 255 * (capacity*1.3 + 0.01) }

		for {
			op, ok := next()
			if !ok {
				break
			}
			qb, _ := next()
			eb, _ := next()
			q := queriers[int(qb)%len(queriers)]
			e := int64(int(eb)%60 - 10)
			switch {
			case op%4 == 1 && op >= 0x80: // all-or-nothing window charge, possibly empty
				kb, _ := next()
				lb, _ := next()
				last := e + int64(kb)%8 - 1
				denials := l.Denials()
				if got, want := l.ChargeAll(q, e, last, eps(lb)), ref.all(q, e, last, eps(lb)); got != want {
					t.Fatalf("ChargeAll(%s, %d, %d, %v) = %t, ref %t", q, e, last, eps(lb), got, want)
				}
				if l.Denials() != denials {
					t.Fatalf("ChargeAll(%s, %d, %d, %v) counted a denial", q, e, last, eps(lb))
				}
			case op%4 == 1: // whole-window charge with a fuzzer-chosen loss vector
				kb, _ := next()
				k := int(kb)%7 + 1
				losses := make([]float64, k)
				for i := range losses {
					lb, _ := next()
					if lb%4 != 0 { // keep genuine zero-loss epochs in the mix
						losses[i] = eps(lb)
					}
				}
				outcomes := make([]ChargeOutcome, k)
				l.ChargeWindow(q.String(), e, losses, outcomes)
				for i, lossI := range losses {
					if want := ref.charge(q, e+int64(i), lossI); outcomes[i] != want {
						t.Fatalf("window outcome[%d] at epoch %d = %v, ref %v",
							i, e+int64(i), outcomes[i], want)
					}
				}
			case op%4 == 2: // snapshot restore
				vb, _ := next()
				consumed := float64(vb) / 255 * capacity * 1.05 // sometimes above capacity
				gotErr := l.Restore(q, e, consumed) != nil
				wantErr := !ref.restore(q, e, consumed)
				if gotErr != wantErr {
					t.Fatalf("Restore(%s, %d, %v) error=%t, ref error=%t",
						q, e, consumed, gotErr, wantErr)
				}
			case op%4 == 3: // requested mark over a window (changes no budget state)
				kb, _ := next()
				if err := checkMark(l, ref, q, e, e+int64(kb)%7); err != nil {
					t.Fatal(err)
				}
			default: // single charge
				lb, _ := next()
				loss := 0.0
				if lb%4 != 0 {
					loss = eps(lb)
				}
				if got, want := l.Charge(q, e, loss), ref.charge(q, e, loss); got != want {
					t.Fatalf("Charge(%s, %d, %v) = %v, ref %v", q, e, loss, got, want)
				}
			}
			// Read-back after every op.
			if got, want := l.Consumed(q, e), ref.consumed(q, e); got != want {
				t.Fatalf("Consumed(%s, %d) = %v, ref %v", q, e, got, want)
			}
		}

		// Full final state: requested marks, every walk in name order, and
		// every slot bitwise.
		if err := checkRequested(l, ref); err != nil {
			t.Fatal(err)
		}
		if err := checkNameOrder(l); err != nil {
			t.Fatal(err)
		}
		want := ref.rows()
		for _, row := range l.Rows() {
			wantC, ok := want[row.Querier][row.Epoch]
			if !ok {
				t.Fatalf("ledger has slot %s/%d the reference lacks", row.Querier, row.Epoch)
			}
			if row.Consumed != wantC {
				t.Fatalf("slot %s/%d consumed %v, ref %v", row.Querier, row.Epoch, row.Consumed, wantC)
			}
			if refCap := ref.budgets[row.Querier][row.Epoch].capacity; row.Capacity != refCap {
				t.Fatalf("slot %s/%d capacity %v, ref %v", row.Querier, row.Epoch, row.Capacity, refCap)
			}
			delete(want[row.Querier], row.Epoch)
		}
		for q, byEpoch := range want {
			for e, c := range byEpoch {
				// The reference creates a filter row even for an untouched
				// denial at capacity 0 — so does the ledger; anything left
				// here is a slot the ledger dropped.
				if !math.IsNaN(c) {
					t.Fatalf("reference has slot %s/%d (consumed %v) the ledger lacks", q, e, c)
				}
			}
		}
	})
}
