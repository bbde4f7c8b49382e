package stream

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
)

// goroutinesBackTo waits until no more than n goroutines run — the count
// before a Replay — and fails if some still do after a grace period: a
// stage goroutine that outlived Replay. The count is polled because a
// goroutine that has released its joiner still counts until it exits.
func goroutinesBackTo(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines run after Replay returned, %d before it", runtime.NumGoroutine(), n)
		}
	}
}

// TestReplayErrorMatchesSequential plants a malformed request (a negative
// conversion value) on a middle fire day of a micro trace. Replay must
// return the error the sequential arm — one Flush per fire day over a store
// of its own — returns, with the same results released before it, and must
// leave no stage goroutine behind, at any parallelism.
func TestReplayErrorMatchesSequential(t *testing.T) {
	ds := releaseTrace(t)
	evs := slices.Clone(ds.Events)
	planned := PlanDays(Config{EpsilonG: 1}, ds.Stream())
	bad := planned[len(planned)/2][0].batch[0]
	i := slices.IndexFunc(evs, func(ev events.Event) bool {
		return ev.IsConversion() && ev.ID == bad.ID && ev.Device == bad.Device
	})
	evs[i].Value = -1
	trace := *ds
	trace.Events = evs

	for _, par := range []int{1, 2, 8} {
		cfg := Config{EpsilonG: 1, Seed: 7, Parallelism: par}
		seq := NewEngine(cfg, ds.Meta(), events.NewFrozen(7, evs))
		var want error
		for _, day := range PlanDays(cfg, trace.Stream()) {
			if want = seq.Flush(day, nil); want != nil {
				break
			}
		}
		if want == nil {
			t.Fatal("the planted request did not fail the sequential arm")
		}

		before := runtime.NumGoroutine()
		eng := NewEngine(cfg, ds.Meta(), nil)
		got := eng.Replay(evs)
		goroutinesBackTo(t, before)
		if got == nil || got.Error() != want.Error() {
			t.Fatalf("parallelism %d: Replay returned %v, the sequential arm %v", par, got, want)
		}
		a, b := seq.Run().Results, eng.Run().Results
		if len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("parallelism %d: %d results released before the error sequentially, %d by Replay, or they differ",
				par, len(a), len(b))
		}
	}
}

// errPlanted is what panicPolicy panics with.
var errPlanted = errors.New("planted loss-policy panic")

// panicPolicy is Cookie Monster's loss policy, except that it panics for any
// request whose window reaches epoch from: a generate worker panicking in
// the middle of a run.
type panicPolicy struct {
	core.CookieMonsterPolicy
	from events.Epoch
}

func (p panicPolicy) EpochLoss(relevant []events.Event, req *core.Request) float64 {
	if req.LastEpoch >= p.from {
		panic(errPlanted)
	}
	return p.CookieMonsterPolicy.EpochLoss(relevant, req)
}

// TestReplayPanicReachesCaller has a generate worker panic on a middle fire
// day: the panic must surface on Replay's caller, with no stage goroutine
// left running, at any parallelism.
func TestReplayPanicReachesCaller(t *testing.T) {
	ds := releaseTrace(t)
	planned := PlanDays(Config{EpsilonG: 1}, ds.Stream())
	from := events.EpochOfDay(planned[len(planned)/2][0].fireDay, 7)
	for _, par := range []int{1, 2, 8} {
		cfg := Config{EpsilonG: 1, Seed: 7, Parallelism: par, Policy: panicPolicy{from: from}}
		before := runtime.NumGoroutine()
		eng := NewEngine(cfg, ds.Meta(), nil)
		var err error
		r := func() (r any) {
			defer func() { r = recover() }()
			err = eng.Replay(ds.Events)
			return nil
		}()
		if r != errPlanted {
			t.Fatalf("parallelism %d: Replay returned %v and recovered %v, want the planted panic", par, err, r)
		}
		goroutinesBackTo(t, before)
		if len(eng.Run().Results) == 0 {
			t.Fatalf("parallelism %d: the panic came before any fire day folded", par)
		}
	}
}
