package stream

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/fanout"
)

// This file holds the generate stage's deterministic fan-out: per-device
// marks and report generation across a bounded worker pool (fanout.Run) for
// a whole day's due list per call, whichever front end flushes it — and
// spawn, which starts the stage goroutines of Replay's pipeline.
//
// Determinism contract: results are bit-identical for every Parallelism
// value. Two properties make that hold. First, work is partitioned by
// device — a device's conversions within a flush execute sequentially in
// submission order, all of its requested marks before its visit, because
// they contend for the same privacy filters and the order decides which
// epoch a denial lands on — while distinct devices share no mutable state
// (nothing writes the event store during a flush, filters are per-device,
// and a device's creation order never reaches an output: Fleet.Range walks
// by ID), so their schedules commute. Second, every
// per-conversion output lands in an index-addressed slot and the aggregate
// stage folds the slots in conversion order, so float accumulation order
// never depends on the schedule. Report generation itself draws no
// randomness; the run's noise streams (stats.Stream) are consumed only by
// the sequential aggregate stage, in query order.

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

// Generator runs the generate stage with state that persists across
// batches: the grouping scratch and per-worker workspaces. The Engine holds
// one per run. A Generator serves one batch at a time; the zero value is
// ready and visits devices, and central makes it compute true report values
// instead (the IPA-like baseline, whose budget is central).
type Generator struct {
	central bool
	grouper Grouper
	workers []genWorker
}

// genWorker is one worker's private state: the batched-generation and truth
// workspaces, the per-group gather buffers, and the worker's first observed
// error.
type genWorker struct {
	ms    core.MultiScratch
	s     core.Scratch
	reqs  []*core.Request
	reps  []*core.Report
	stats []core.ReportStats
	// errConv is the smallest conversion index whose request this worker
	// found invalid (-1 when none); err is that conversion's error.
	errConv int
	err     error
}

// fail records conversion conv's error if it is the worker's smallest.
func (ws *genWorker) fail(conv int, err error) {
	if ws.errConv < 0 || conv < ws.errConv {
		ws.errConv, ws.err = conv, err
	}
}

// Generate runs the generate stage for one batch of conversions, given each
// conversion's request. Requests are grouped by device, and the worker that
// owns a group resolves its device in fleet once, marks every request's
// window requested for its querier in group order, and then visits the
// device once with all of the group's requests
// (core.Device.GenerateReportBatch — a window selection per request, one
// ledger lock for every querier's charge, one nonce draw per device) or, for
// a central Generator, computes each request's true report value. Outputs
// land slotted by conversion index in out's storage, grown to len(batch)
// when short; the returned slice aliases it, so the caller decides how long
// outputs live and may alternate buffers across calls (the *Report
// pointers themselves are the caller's to retain).
//
// A malformed request surfaces as an error after the fan-out barrier — the
// offending device group is not created, marked or charged, and every other
// device's work completes normally — and the reported error is
// deterministically the one with the smallest conversion index, regardless
// of worker schedule. A request list that does not line up with the batch is
// refused before any device is touched.
func (g *Generator) Generate(fleet *core.Fleet, reqs []*core.Request, batch []events.Event,
	out []convOutput, workers int) ([]convOutput, error) {
	n := len(batch)
	if len(reqs) != n {
		return nil, fmt.Errorf("stream: generate got %d requests for %d conversions", len(reqs), n)
	}
	out = slices.Grow(out[:0], n)[:n]
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
	fanout.Run(len(groups), workers, func(w, gi int) {
		ws := &g.workers[w]
		group := groups[gi]
		ws.reqs = ws.reqs[:0]
		for _, i := range group {
			if err := reqs[i].Validate(); err != nil {
				ws.fail(i, err)
				return
			}
			ws.reqs = append(ws.reqs, reqs[i])
		}
		dev := fleet.GetOrCreate(batch[group[0]].Device)
		for _, req := range ws.reqs {
			dev.MarkRequested(events.Intern(req.Querier), req.FirstEpoch, req.LastEpoch)
		}
		if g.central {
			for j, i := range group {
				out[i] = convOutput{truth: dev.TrueReportValue(ws.reqs[j], &ws.s)}
			}
			return
		}
		if cap(ws.reps) < len(group) {
			ws.reps = make([]*core.Report, len(group))
			ws.stats = make([]core.ReportStats, len(group))
		} else {
			ws.reps = ws.reps[:len(group)]
			ws.stats = ws.stats[:len(group)]
		}
		if lane, err := dev.GenerateReportBatch(ws.reqs, &ws.ms, ws.reps, ws.stats); err != nil {
			ws.fail(group[lane], err)
			return
		}
		for j, i := range group {
			out[i] = convOutput{report: ws.reps[j], stats: ws.stats[j]}
		}
	})
	firstConv, firstErr := -1, error(nil)
	for w := range g.workers {
		if ws := &g.workers[w]; ws.err != nil && (firstConv < 0 || ws.errConv < firstConv) {
			firstConv, firstErr = ws.errConv, ws.err
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("stream: request for conversion %d invalid: %w", firstConv, firstErr)
	}
	return out, nil
}

// spawn runs fn on a goroutine of its own and returns join, which waits for
// fn to return and re-raises on its caller any panic fn raised, as
// fanout.Run does for its workers. Call join exactly once.
func spawn(fn func()) (join func()) {
	done := make(chan struct{})
	var panicked any
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		fn()
	}()
	return func() {
		<-done
		if panicked != nil {
			panic(panicked)
		}
	}
}
