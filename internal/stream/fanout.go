package stream

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/events"
)

// This file holds the generate stage's deterministic fan-out: per-conversion
// report generation across a bounded worker pool, for one query (the batch
// front end) or a whole day's due list (the streaming service) per call.
//
// Determinism contract: results are bit-identical for every Parallelism
// value. Two properties make that hold. First, work is partitioned by
// device — a device's conversions within a flush execute sequentially in
// submission order, because they contend for the same privacy filters and
// the order decides which epoch a denial lands on — while distinct devices
// share no mutable state (nothing writes the event store during a flush,
// filters are per-device), so their schedules commute. Second, every
// per-conversion output lands in an index-addressed slot and the aggregate
// stage folds the slots in conversion order, so float accumulation order
// never depends on the schedule. Report generation itself draws no
// randomness; the run's noise streams (stats.Stream) are consumed only by
// the sequential aggregate stage, in query order.

// FanOutWorkers runs fn(worker, job) for jobs [0, n) on up to workers
// goroutines, pulling jobs from an atomic queue. The worker index is dense
// in [0, min(workers, n)) and identifies the calling goroutine, so callers
// can hand each worker private scratch state without locking. It propagates
// the first panic to the caller and returns once every job finished.
func FanOutWorkers(n, workers int, fn func(worker, job int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for job := 0; job < n; job++ {
			fn(0, job)
		}
		return
	}
	var next atomic.Int64
	var panicMu sync.Mutex
	var panicked any
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				job := int(next.Add(1)) - 1
				if job >= n {
					return
				}
				fn(w, job)
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// scratchPerWorker sizes a per-worker scratch pool for n jobs on up to
// workers goroutines (matching FanOutWorkers' clamping).
func scratchPerWorker(n, workers int) []core.Scratch {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return make([]core.Scratch, workers)
}

// Grouper is reusable grouping scratch: the device-order map and the group
// slices persist across batches, so the steady-state per-day cost of
// grouping in the streaming executor is zero allocations (the map is
// cleared, the inner slices truncated in place). One Grouper serves one
// goroutine at a time; the zero value is ready.
type Grouper struct {
	order  map[events.DeviceID]int
	groups [][]int
}

// Group partitions batch indices by device, groups ordered by first
// appearance and each group preserving batch order — the unit of parallel
// work that keeps same-device budget operations sequential. When the batch
// concatenates several queries' conversions in canonical query order, the
// groups serialize a device's operations across all of them, which is what
// lets the streaming service multiplex queriers concurrently and still match
// one query per flush bit for bit. The returned groups alias the Grouper's
// scratch and are valid until the next Group call.
func (g *Grouper) Group(batch []events.Event) [][]int {
	if g.order == nil {
		g.order = make(map[events.DeviceID]int, len(batch))
	} else {
		clear(g.order)
	}
	used := 0
	for i, conv := range batch {
		gi, ok := g.order[conv.Device]
		if !ok {
			gi = used
			g.order[conv.Device] = gi
			if used < len(g.groups) {
				g.groups[used] = g.groups[used][:0]
			} else {
				g.groups = append(g.groups, nil)
			}
			used++
		}
		g.groups[gi] = append(g.groups[gi], i)
	}
	return g.groups[:used]
}

// Generator runs the on-device generate stage with state that persists
// across batches: the grouping scratch, one core.MultiScratch per worker,
// and the output slices. The Engine holds one per run. A Generator serves
// one batch at a time; the zero value is ready.
type Generator struct {
	grouper Grouper
	workers []genWorker
	reports []*core.Report
	stats   []core.ReportStats
}

// genWorker is one worker's private state: the batched-generation workspace,
// the per-group gather buffers, and the worker's first observed error.
type genWorker struct {
	ms    core.MultiScratch
	reqs  []*core.Request
	reps  []*core.Report
	stats []core.ReportStats
	// errConv is the smallest conversion index whose request this worker
	// found invalid (-1 when none); err is that conversion's error.
	errConv int
	err     error
}

// Generate runs the on-device generate stage for one batch of conversions,
// given each conversion's request and the device the executor's prepare stage
// resolved for it (devs[i] is batch[i]'s device; Generate never looks one up
// in the fleet): requests grouped by device, each device visited once per
// batch with all of its requests evaluated in a single pass
// (core.Device.GenerateReportBatch — one window traversal feeding every
// compiled matcher lane, one ledger lock for every querier's charge, one
// nonce draw per device). Reports and fold-ready stats land slotted by
// conversion index; the returned slices are reused by the next Generate call,
// so callers must copy out (the *Report pointers themselves are the caller's
// to retain).
//
// A malformed request surfaces as an error after the fan-out barrier — the
// offending device visit charges nothing and every other device's work
// completes normally — and the reported error is deterministically the one
// with the smallest conversion index, regardless of worker schedule. Device
// and request lists that do not line up with the batch are refused before
// any device is visited.
func (g *Generator) Generate(devs []*core.Device, reqs []*core.Request, batch []events.Event,
	workers int) ([]*core.Report, []core.ReportStats, error) {
	n := len(batch)
	if len(devs) != n || len(reqs) != n {
		return nil, nil, fmt.Errorf("stream: generate got %d devices and %d requests for %d conversions",
			len(devs), len(reqs), n)
	}
	if cap(g.reports) < n {
		g.reports = make([]*core.Report, n)
		g.stats = make([]core.ReportStats, n)
	} else {
		g.reports = g.reports[:n]
		g.stats = g.stats[:n]
		clear(g.reports)
		clear(g.stats)
	}
	groups := g.grouper.Group(batch)
	nw := min(workers, len(groups))
	if nw < 1 {
		nw = 1
	}
	if cap(g.workers) < nw {
		ws := make([]genWorker, nw)
		copy(ws, g.workers[:cap(g.workers)])
		g.workers = ws
	} else {
		g.workers = g.workers[:nw]
	}
	for w := range g.workers {
		g.workers[w].errConv = -1
		g.workers[w].err = nil
	}
	FanOutWorkers(len(groups), workers, func(w, gi int) {
		ws := &g.workers[w]
		group := groups[gi]
		ws.reqs = ws.reqs[:0]
		for _, i := range group {
			ws.reqs = append(ws.reqs, reqs[i])
		}
		if cap(ws.reps) < len(group) {
			ws.reps = make([]*core.Report, len(group))
			ws.stats = make([]core.ReportStats, len(group))
		} else {
			ws.reps = ws.reps[:len(group)]
			ws.stats = ws.stats[:len(group)]
		}
		lane, err := devs[group[0]].GenerateReportBatch(ws.reqs, &ws.ms, ws.reps, ws.stats)
		if err != nil {
			if conv := group[lane]; ws.errConv < 0 || conv < ws.errConv {
				ws.errConv, ws.err = conv, err
			}
			return
		}
		for j, i := range group {
			g.reports[i], g.stats[i] = ws.reps[j], ws.stats[j]
		}
	})
	firstConv, firstErr := -1, error(nil)
	for w := range g.workers {
		if ws := &g.workers[w]; ws.err != nil && (firstConv < 0 || ws.errConv < firstConv) {
			firstConv, firstErr = ws.errConv, ws.err
		}
	}
	if firstErr != nil {
		return nil, nil, fmt.Errorf("stream: request for conversion %d invalid: %w", firstConv, firstErr)
	}
	return g.reports, g.stats, nil
}

// trueValues runs the centralized generate stage: every conversion's true
// report value computed from the full data. The reads are side-effect free,
// so the fan-out needs no device grouping; the selection buffers are still
// reused per worker.
func trueValues(db *events.Database, reqs []*core.Request, batch []events.Event,
	workers int) []float64 {
	out := make([]float64, len(batch))
	scratch := scratchPerWorker(len(batch), workers)
	FanOutWorkers(len(batch), workers, func(w, i int) {
		out[i] = core.TrueReportValueScratch(db, batch[i].Device, reqs[i], &scratch[w])
	})
	return out
}
