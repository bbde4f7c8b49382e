package privacy

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/events"
)

// qq is the querier whose one slot the filter tests charge.
var qq = events.Intern("q")

// A ledger slot is the paper's per-epoch pure-DP privacy filter (Eq. 3).
// These are the filter's own properties, checked on one slot.

func TestFilterConsumeWithinCapacity(t *testing.T) {
	l := NewLedger(1.0)
	for i := 0; i < 10; i++ {
		if out := l.Charge(qq, 0, 0.1); out != ChargeOK {
			t.Fatalf("charge %d = %v", i, out)
		}
	}
	if got := l.Consumed(qq, 0); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("consumed = %v", got)
	}
	if out := l.Charge(qq, 0, 0.01); out != ChargeDenied {
		t.Fatalf("overflow charge = %v", out)
	}
}

func TestFilterRejectDoesNotConsume(t *testing.T) {
	l := NewLedger(1.0)
	if out := l.Charge(qq, 0, 0.9); out != ChargeOK {
		t.Fatal(out)
	}
	// A too-large request is rejected...
	if out := l.Charge(qq, 0, 0.5); out != ChargeDenied {
		t.Fatalf("over-capacity charge = %v", out)
	}
	// ...but a smaller one still fits: rejections must not consume.
	if out := l.Charge(qq, 0, 0.1); out != ChargeOK {
		t.Fatalf("post-rejection charge = %v", out)
	}
}

func TestFilterZeroLossAlwaysAdmitted(t *testing.T) {
	l := NewLedger(0)
	for i := 0; i < 5; i++ {
		if out := l.Charge(qq, 0, 0); out != ChargeZero {
			t.Fatalf("zero loss = %v", out)
		}
		if !l.ChargeAll(qq, 0, 2, 0) {
			t.Fatal("zero loss refused over a window")
		}
	}
	if out := l.Charge(qq, 0, 1e-9); out != ChargeDenied {
		t.Fatalf("zero-capacity slot admitted positive loss: %v", out)
	}
	if l.ChargeAll(qq, 0, 0, 1e-9) {
		t.Fatal("zero-capacity window admitted positive loss")
	}
}

func TestFilterNegativeLossPanics(t *testing.T) {
	for name, charge := range map[string]func(l *Ledger){
		"Charge":       func(l *Ledger) { l.Charge(qq, 0, -0.1) },
		"ChargeWindow": func(l *Ledger) { l.ChargeWindow("q", 0, []float64{0.1, -0.1}, make([]ChargeOutcome, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: negative loss did not panic", name)
				}
			}()
			charge(NewLedger(1))
		}()
	}
}

func TestFilterNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative capacity did not panic")
		}
	}()
	NewLedger(-1)
}

func TestFilterAccessors(t *testing.T) {
	l := NewLedger(2)
	if l.capacity != 2 || l.Consumed(qq, 0) != 0 || len(l.Rows()) != 0 {
		t.Fatal("fresh ledger accessors wrong")
	}
	l.Charge(qq, 0, 0.5)
	if got, want := l.Rows(), []LedgerEntry{{qq, 0, 0.5, 2}}; l.Consumed(qq, 0) != 0.5 || !slices.Equal(got, want) {
		t.Fatalf("after a charge: consumed %v, rows %v", l.Consumed(qq, 0), got)
	}
	// 1.6 does not fit the 1.5 left; 1.5 does, and exhausts the slot.
	if l.Charge(qq, 0, 1.6) != ChargeDenied || l.Charge(qq, 0, 1.5) != ChargeOK {
		t.Fatal("remaining budget wrong")
	}
	if l.Consumed(qq, 0) != 2 || l.Charge(qq, 0, 1e-6) != ChargeDenied {
		t.Fatal("full slot not exhausted")
	}
}

func TestFilterFloatBoundary(t *testing.T) {
	// Ten charges of 0.1 must exactly fill a capacity-1 slot even though 0.1
	// is not exactly representable, one epoch at a time or a window at once.
	l := NewLedger(1)
	for i := 0; i < 10; i++ {
		if out := l.Charge(qq, 0, 0.1); out != ChargeOK {
			t.Fatalf("boundary charge %d = %v", i, out)
		}
		if !l.ChargeAll(qq, 1, 3, 0.1) {
			t.Fatalf("boundary window %d refused", i)
		}
	}
	for _, row := range l.Rows() {
		if row.Consumed > row.Capacity {
			t.Fatalf("slot %d over capacity: %v", row.Epoch, row.Consumed)
		}
	}
}

// The filter invariant: no interleaving of accepted charges exceeds
// capacity.
func TestFilterConcurrentNeverOverConsumes(t *testing.T) {
	const capacity = 1.0
	const workers = 32
	const perWorker = 200
	l := NewLedger(capacity)
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0.0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				eps := 0.001 * float64(seed%5+1)
				if l.Charge(qq, 0, eps) == ChargeOK {
					mu.Lock()
					accepted += eps
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if accepted > capacity*(1+1e-6) {
		t.Fatalf("accepted %v > capacity %v", accepted, capacity)
	}
	if math.Abs(accepted-l.Consumed(qq, 0)) > 1e-6 {
		t.Fatalf("accepted %v, slot says %v", accepted, l.Consumed(qq, 0))
	}
}

// Property: for any sequence of non-negative losses, the slot admits a
// prefix-closed subset whose sum never exceeds capacity, and admits any loss
// that fits.
func TestFilterSequentialCompositionQuick(t *testing.T) {
	f := func(rawLosses []float64, rawCap float64) bool {
		capacity := math.Mod(math.Abs(rawCap), 10)
		if math.IsNaN(capacity) {
			return true
		}
		l := NewLedger(capacity)
		var admitted []float64
		for _, rl := range rawLosses {
			loss := math.Mod(math.Abs(rl), 1)
			if math.IsNaN(loss) {
				continue
			}
			fits := SequentialComposition(admitted)+loss <= capacity*(1+1e-9)
			out := l.Charge(qq, 0, loss)
			if fits && out == ChargeDenied {
				return false // fitting loss was rejected
			}
			if out != ChargeDenied {
				admitted = append(admitted, loss)
			}
		}
		return SequentialComposition(admitted) <= capacity*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
