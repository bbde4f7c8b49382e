package aggregation

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/stats"
)

func mkReport(nonce core.Nonce, value, eps, qsens float64) *core.Report {
	return &core.Report{
		Nonce:            nonce,
		Querier:          events.Intern("nike.com"),
		Histogram:        attribution.Histogram{value},
		Epsilon:          eps,
		QuerySensitivity: qsens,
	}
}

func TestExecuteSumsAndNoises(t *testing.T) {
	s := NewService(stats.NewRNG(1))
	var reports []*core.Report
	truth := 0.0
	for i := 1; i <= 1000; i++ {
		v := float64(i % 7)
		truth += v
		reports = append(reports, mkReport(core.Nonce(i), v, 5.0, 7.0))
	}
	res, err := s.Execute(reports)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch != 1000 || res.Epsilon != 5.0 {
		t.Fatalf("result meta = %+v", res)
	}
	// Noise scale Δ/ε = 1.4: the estimate should be near the truth.
	if math.Abs(res.Aggregate[0]-truth) > 30 {
		t.Fatalf("aggregate %v too far from truth %v", res.Aggregate[0], truth)
	}
	if res.NoiseScale != 7.0/5.0 {
		t.Fatalf("noise scale = %v", res.NoiseScale)
	}
}

func TestExecuteEmptyBatch(t *testing.T) {
	s := NewService(stats.NewRNG(2))
	if _, err := s.Execute(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestExecuteRejectsReplay(t *testing.T) {
	s := NewService(stats.NewRNG(3))
	r := mkReport(42, 1, 1, 1)
	if _, err := s.Execute([]*core.Report{r}); err != nil {
		t.Fatal(err)
	}
	// Same nonce again: replay must be rejected.
	if _, err := s.Execute([]*core.Report{r}); !errors.Is(err, ErrReplayedNonce) {
		t.Fatalf("replay err = %v", err)
	}
}

func TestExecuteReplayRollsBack(t *testing.T) {
	s := NewService(stats.NewRNG(4))
	good := mkReport(1, 1, 1, 1)
	dup := mkReport(2, 1, 1, 1)
	if _, err := s.Execute([]*core.Report{dup}); err != nil {
		t.Fatal(err)
	}
	// Batch with one fresh and one replayed nonce fails entirely...
	if _, err := s.Execute([]*core.Report{good, dup}); !errors.Is(err, ErrReplayedNonce) {
		t.Fatalf("err = %v", err)
	}
	// ...but the fresh nonce was rolled back and can still be used.
	if _, err := s.Execute([]*core.Report{good}); err != nil {
		t.Fatalf("rolled-back nonce unusable: %v", err)
	}
}

func TestExecuteRejectsMixedBatches(t *testing.T) {
	s := NewService(stats.NewRNG(5))
	a := mkReport(1, 1, 1.0, 10)
	cases := []*core.Report{
		mkReport(2, 1, 2.0, 10), // different ε
		mkReport(3, 1, 1.0, 20), // different sensitivity
		{Nonce: 4, Querier: events.Intern("adidas.com"), Histogram: attribution.Histogram{1}, Epsilon: 1, QuerySensitivity: 10},
		{Nonce: 5, Querier: events.Intern("nike.com"), Histogram: attribution.Histogram{1, 2}, Epsilon: 1, QuerySensitivity: 10},
	}
	for i, bad := range cases {
		if _, err := s.Execute([]*core.Report{a, bad}); !errors.Is(err, ErrMixedBatch) {
			t.Fatalf("case %d: err = %v", i, err)
		}
	}
	// The head report's nonce must not have been burned by rejections.
	if _, err := s.Execute([]*core.Report{a}); err != nil {
		t.Fatalf("nonce burned by rejected batches: %v", err)
	}
}

func TestExecuteAggregatesBiasFlags(t *testing.T) {
	s := NewService(stats.NewRNG(6))
	var reports []*core.Report
	flagged := 0.0
	for i := 1; i <= 2000; i++ {
		r := mkReport(core.Nonce(i), 1, 10, 1)
		if i%4 == 0 {
			r.BiasFlag = 0.1
			flagged += 0.1
		}
		reports = append(reports, r)
	}
	res, err := s.Execute(reports)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BiasCount-flagged) > 2 {
		t.Fatalf("bias count %v too far from %v", res.BiasCount, flagged)
	}
}

func TestExecuteIsUnbiasedOverRuns(t *testing.T) {
	// The mechanism must be centered: averaging many runs approaches the
	// true sum.
	truth := 100.0
	sum := 0.0
	const runs = 2000
	for i := 0; i < runs; i++ {
		s := NewService(stats.NewRNG(uint64(i + 10)))
		res, err := s.Execute([]*core.Report{mkReport(1, truth, 1.0, 10)})
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Aggregate[0]
	}
	if mean := sum / runs; math.Abs(mean-truth) > 1.5 {
		t.Fatalf("mean estimate %v, want ~%v", mean, truth)
	}
}

func TestCompactReclaimsMemory(t *testing.T) {
	s := NewService(stats.NewRNG(8))
	// Consume three batches' worth of nonces.
	var maxNonce core.Nonce
	for b := 0; b < 3; b++ {
		var batch []*core.Report
		for i := 0; i < 100; i++ {
			maxNonce++
			batch = append(batch, mkReport(maxNonce, 1, 1, 1))
		}
		if _, err := s.Execute(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ConsumedNonces(); got != 300 {
		t.Fatalf("consumed nonces = %d, want 300", got)
	}

	// Compacting at the completed batches' high-water mark reclaims the
	// tracking memory...
	if evicted := s.Compact(maxNonce); evicted != 300 {
		t.Fatalf("evicted %d nonces, want 300", evicted)
	}
	if got := s.ConsumedNonces(); got != 0 {
		t.Fatalf("consumed nonces after compaction = %d, want 0", got)
	}
	if got := s.Watermark(); got != maxNonce {
		t.Fatalf("watermark = %d, want %d", got, maxNonce)
	}

	// ...while replay of a retired nonce is still rejected, with nothing
	// newly tracked for it.
	if _, err := s.Execute([]*core.Report{mkReport(1, 1, 1, 1)}); !errors.Is(err, ErrReplayedNonce) {
		t.Fatalf("retired nonce replay err = %v", err)
	}
	if got := s.ConsumedNonces(); got != 0 {
		t.Fatalf("rejected replay left %d tracked nonces", got)
	}

	// A mixed batch of fresh and retired nonces fails atomically: the
	// fresh nonce rolls back and stays usable.
	fresh := mkReport(maxNonce+1, 1, 1, 1)
	if _, err := s.Execute([]*core.Report{fresh, mkReport(maxNonce, 1, 1, 1)}); !errors.Is(err, ErrReplayedNonce) {
		t.Fatalf("mixed fresh/retired err = %v", err)
	}
	if _, err := s.Execute([]*core.Report{fresh}); err != nil {
		t.Fatalf("fresh nonce burned by rejected batch: %v", err)
	}

	// The watermark never moves backwards.
	if evicted := s.Compact(1); evicted != 0 {
		t.Fatalf("backwards compaction evicted %d", evicted)
	}
	if got := s.Watermark(); got != maxNonce {
		t.Fatalf("watermark moved backwards to %d", got)
	}
}

// TestConcurrentClaimRollback exercises the atomic claim/rollback path under
// concurrent submitters (run with -race): many goroutines submit batches that
// all share one contended nonce but carry distinct private nonces. Exactly
// one batch may win; every loser must roll back its private nonces so they
// remain spendable.
func TestConcurrentClaimRollback(t *testing.T) {
	s := NewService(stats.NewRNG(9))
	const submitters = 32
	const batchSize = 8
	const contended = core.Nonce(1)

	var wg sync.WaitGroup
	wins := make([]bool, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := []*core.Report{mkReport(contended, 1, 1, 1)}
			for i := 0; i < batchSize; i++ {
				// Private nonces, disjoint across submitters.
				n := core.Nonce(100 + g*batchSize + i)
				batch = append(batch, mkReport(n, 1, 1, 1))
			}
			_, err := s.Execute(batch)
			if err != nil && !errors.Is(err, ErrReplayedNonce) {
				t.Errorf("submitter %d: unexpected error %v", g, err)
			}
			wins[g] = err == nil
		}(g)
	}
	wg.Wait()

	winners := 0
	for _, ok := range wins {
		if ok {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d batches consumed the contended nonce, want exactly 1", winners)
	}
	// Only the winner's nonces are consumed; every loser rolled back.
	if got, want := s.ConsumedNonces(), 1+batchSize; got != want {
		t.Fatalf("consumed nonces = %d, want %d", got, want)
	}
	// Losers resubmit without the offender and must all succeed — their
	// private nonces were rolled back, not burned.
	for g := 0; g < submitters; g++ {
		if wins[g] {
			continue
		}
		var batch []*core.Report
		for i := 0; i < batchSize; i++ {
			n := core.Nonce(100 + g*batchSize + i)
			batch = append(batch, mkReport(n, 1, 1, 1))
		}
		if _, err := s.Execute(batch); err != nil {
			t.Fatalf("submitter %d retry after rollback: %v", g, err)
		}
	}
	if got, want := s.ConsumedNonces(), 1+submitters*batchSize; got != want {
		t.Fatalf("consumed nonces after retries = %d, want %d", got, want)
	}
}

// TestConcurrentCompactAndExecute races compaction against submitters (run
// with -race): whatever the interleaving, a batch either lands entirely above
// the watermark or is rejected whole, and the final tracked set only holds
// above-watermark nonces.
func TestConcurrentCompactAndExecute(t *testing.T) {
	s := NewService(stats.NewRNG(10))
	const submitters = 16
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := core.Nonce(1 + g*10)
			var batch []*core.Report
			for i := 0; i < 10; i++ {
				batch = append(batch, mkReport(base+core.Nonce(i), 1, 1, 1))
			}
			if _, err := s.Execute(batch); err != nil && !errors.Is(err, ErrReplayedNonce) {
				t.Errorf("submitter %d: %v", g, err)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := core.Nonce(10); w <= 80; w += 10 {
			s.Compact(w)
		}
	}()
	wg.Wait()
	s.Compact(80)
	// Deterministic final state: the 8 batches with nonces 81–160 sit
	// above every watermark and are unique, so they always succeed and
	// survive compaction; everything at or below 80 has been evicted.
	// Exactly 80 tracked entries — more means compaction missed some,
	// fewer means an above-watermark claim was lost.
	if got, want := s.ConsumedNonces(), 80; got != want {
		t.Fatalf("tracked nonces = %d, want %d after compaction to 80", got, want)
	}
}

func TestConcurrentExecuteNoDoubleSpend(t *testing.T) {
	s := NewService(stats.NewRNG(7))
	const n = 100
	var wg sync.WaitGroup
	successes := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// All goroutines race to spend the same nonce.
			_, err := s.Execute([]*core.Report{mkReport(core.Nonce(999), 1, 1, 1)})
			successes[i] = err == nil
		}(i)
	}
	wg.Wait()
	count := 0
	for _, ok := range successes {
		if ok {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("nonce spent %d times, want exactly once", count)
	}
	if s.ConsumedNonces() != 1 {
		t.Fatalf("consumed nonces = %d", s.ConsumedNonces())
	}
}
