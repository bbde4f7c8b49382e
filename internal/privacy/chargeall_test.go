package privacy

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/events"
)

// ChargeAll is the IPA-like baseline's admission rule: one population-wide
// ledger, a query admitted only if every epoch of its window has budget.

var nike = events.Intern("nike.com")

func TestChargeAllConsumesEveryWindowEpoch(t *testing.T) {
	l := NewLedger(1.0)
	if !l.ChargeAll(nike, 0, 3, 0.25) {
		t.Fatal("window refused")
	}
	for e := int64(0); e <= 3; e++ {
		if got := l.Consumed(nike, e); got != 0.25 {
			t.Fatalf("epoch %d consumed = %v", e, got)
		}
	}
	if l.Consumed(nike, 4) != 0 {
		t.Fatal("epoch outside the window consumed")
	}
}

func TestChargeAllAllOrNothing(t *testing.T) {
	l := NewLedger(1.0)
	// Exhaust epoch 2 only.
	if !l.ChargeAll(nike, 2, 2, 1.0) {
		t.Fatal("window refused")
	}
	// A window covering epoch 2 is refused without charging the other
	// epochs. The walk stopped at epoch 2: the slots it reached are
	// initialized, the one past it is not, and no denial is counted.
	if l.ChargeAll(nike, 0, 3, 0.5) {
		t.Fatal("window over an exhausted epoch admitted")
	}
	want := []LedgerEntry{{nike, 0, 0, 1}, {nike, 1, 0, 1}, {nike, 2, 1, 1}}
	if got := l.Rows(); !slices.Equal(got, want) {
		t.Fatalf("rows after the refusal %v, want %v", got, want)
	}
	if l.Denials() != 0 {
		t.Fatalf("refusal counted %d denials", l.Denials())
	}
	// A window avoiding epoch 2 still works.
	if !l.ChargeAll(nike, 0, 1, 0.5) {
		t.Fatal("window avoiding the exhausted epoch refused")
	}

	// A refusal alone still makes the querier's lane a charged one and moves
	// the version: the slot it initialized is state a snapshot must carry.
	l = NewLedger(0.5)
	v := l.Version()
	if l.ChargeAll(nike, 4, 5, 0.6) {
		t.Fatal("loss above capacity admitted")
	}
	if got := l.Rows(); !slices.Equal(got, []LedgerEntry{{nike, 4, 0, 0.5}}) {
		t.Fatalf("rows after a first-epoch refusal %v", got)
	}
	if l.NumQueriers() != 1 || l.Version() == v {
		t.Fatalf("refusal left NumQueriers %d, version moved %t", l.NumQueriers(), l.Version() != v)
	}
}

func TestChargeAllZeroLossInitializes(t *testing.T) {
	l := NewLedger(1.0)
	if !l.ChargeAll(nike, 1, 2, 0) {
		t.Fatal("zero loss refused")
	}
	if got := l.Rows(); !slices.Equal(got, []LedgerEntry{{nike, 1, 0, 1}, {nike, 2, 0, 1}}) {
		t.Fatalf("zero-loss window rows %v", got)
	}
}

func TestChargeAllPerQuerierIsolation(t *testing.T) {
	l := NewLedger(1.0)
	if !l.ChargeAll(nike, 0, 0, 1.0) {
		t.Fatal("window refused")
	}
	if !l.ChargeAll(events.Intern("adidas.com"), 0, 0, 1.0) {
		t.Fatal("other querier blocked")
	}
}

func TestChargeAllSequentialDepletion(t *testing.T) {
	// The headline IPA behaviour: repeated queries deplete the shared
	// filters after capacity/ε queries, then everything is rejected.
	l := NewLedger(1.0)
	const eps = 0.3
	granted := 0
	for i := 0; i < 10; i++ {
		if l.ChargeAll(nike, 0, 4, eps) {
			granted++
		}
	}
	if granted != 3 {
		t.Fatalf("granted %d queries, want 3 (= ⌊1/0.3⌋)", granted)
	}
}

func TestChargeAllEmptyWindow(t *testing.T) {
	l := NewLedger(1.0)
	v := l.Version()
	if !l.ChargeAll(nike, 5, 4, 0.5) {
		t.Fatal("inverted window refused")
	}
	if len(l.Rows()) != 0 || l.NumQueriers() != 0 || l.Version() != v {
		t.Fatal("inverted window touched the ledger")
	}
}

func TestChargeAllNegativeEpsilonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative eps did not panic")
		}
	}()
	NewLedger(1).ChargeAll(nike, 0, 0, -0.1)
}

func TestChargeAllCapacityAccessor(t *testing.T) {
	l := NewLedger(2.5)
	if l.capacity != 2.5 {
		t.Fatal("capacity accessor wrong")
	}
	// Every slot a window charge initializes carries the ledger's capacity.
	if !l.ChargeAll(nike, 0, 1, 1.0) {
		t.Fatal("window refused")
	}
	want := []LedgerEntry{{nike, 0, 1, 2.5}, {nike, 1, 1, 2.5}}
	if got := l.Rows(); !slices.Equal(got, want) || l.capacity != 2.5 {
		t.Fatalf("rows %v, capacity %v after a window charge", got, l.capacity)
	}
}

func TestChargeAllNegativeCapacityPanics(t *testing.T) {
	for _, capacity := range []float64{-1, -1e-12, math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %v did not panic", capacity)
				}
			}()
			NewLedger(capacity)
		}()
	}
}

func TestChargeAllConcurrentNeverOverConsumes(t *testing.T) {
	l := NewLedger(1.0)
	const eps = 0.1
	const workers = 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	granted := 0
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if l.ChargeAll(nike, 0, 2, eps) {
				mu.Lock()
				granted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if granted != 10 {
		t.Fatalf("granted %d, want 10", granted)
	}
	for e := int64(0); e <= 2; e++ {
		if got := l.Consumed(nike, e); math.Abs(got-1.0) > 1e-9 {
			t.Fatalf("epoch %d consumed %v, want 1.0", e, got)
		}
	}
}
