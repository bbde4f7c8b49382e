package core

import (
	"repro/internal/events"
	"repro/internal/privacy"
)

// Batched cross-querier report generation (DESIGN.md §10): a device visited
// by several pending requests in one day super-batch evaluates all of them
// in a single visit — one columnar window scan feeding a bank of compiled
// matcher lanes, one ledger lock for every querier's check-and-consume, one
// nonce-counter operation for the whole batch. The one-at-a-time path
// (generate) remains the executable reference: both paths run
// the identical lossPass/finish helpers around the identical selection and
// charge arithmetic, and the property suite in multi_test.go holds them to
// bit-equal reports, stats, and ledger state.

// MultiScratch is the reusable per-worker workspace of GenerateReportBatch:
// one Scratch per request lane plus the multi-matcher scan state and the
// batched charge table. The reuse contract matches Scratch — one goroutine
// at a time, nothing observed from a previous call may be retained except
// the returned reports. The zero value is ready for use.
type MultiScratch struct {
	ss      []Scratch
	lanes   []events.ScanLane
	charges []privacy.WindowCharge
	scan    events.MultiScan
}

// grow resizes the lane-indexed tables for n requests, preserving the
// capacity (arena space included) of existing lanes.
func (ms *MultiScratch) grow(n int) {
	if cap(ms.ss) < n {
		ss := make([]Scratch, n)
		copy(ss, ms.ss)
		ms.ss = ss
		lanes := make([]events.ScanLane, n)
		copy(lanes, ms.lanes[:cap(ms.lanes)])
		ms.lanes = lanes
		ms.charges = make([]privacy.WindowCharge, n)
	} else {
		ms.ss = ms.ss[:n]
		ms.lanes = ms.lanes[:n]
		ms.charges = ms.charges[:n]
	}
}

// GenerateReportBatch runs Listing 1 for every request of one device in a
// single device visit. reports[j] and stats[j] receive request j's outputs
// (both must be pre-sized to len(reqs)); the slots are written exactly as
// len(reqs) one-at-a-time generate calls in slice order would fill them —
// same histograms, flags, and stats, same ledger outcomes — with the
// per-request fixed costs amortized across the batch:
//
//   - selection: when every selector compiles, one multi-matcher traversal
//     of the union window replaces len(reqs) independent window scans (the
//     generic fallback still runs per-request selection but keeps the
//     batched charge and nonce draw);
//   - budget: one ledger lock acquisition covers every querier's whole-
//     window check-and-consume, in request order (ChargeWindowBatch);
//   - nonces: one atomic add reserves the device's whole nonce block.
//
// Requests are validated up front: on a malformed request the index of the
// first offending request and its error are returned, and nothing is
// selected, charged, or written. On success it returns (-1, nil).
func (d *Device) GenerateReportBatch(reqs []*Request, ms *MultiScratch,
	reports []*Report, stats []ReportStats) (int, error) {
	db := d.store()
	for j, req := range reqs {
		if err := req.Validate(); err != nil {
			return j, err
		}
	}
	n := len(reqs)
	if n == 0 {
		return -1, nil
	}
	ms.grow(n)
	if n == 1 {
		// A single-request device gains nothing from lane dispatch; the
		// one-at-a-time path is already one scan, one lock, one nonce.
		rep, st, err := d.generate(reqs[0], &ms.ss[0], nil)
		if err != nil {
			return 0, err
		}
		reports[0], stats[0] = rep, st
		return -1, nil
	}

	// Step 1: selection. All selectors compiled → one multi-matcher scan
	// over the union window; otherwise per-request selection (which still
	// uses the compiled single-matcher scan where it can).
	compiled := true
	for j, req := range reqs {
		m, ok := db.Compile(req.Selector)
		if !ok {
			compiled = false
			break
		}
		s := &ms.ss[j]
		s.grow(req.WindowSize())
		ln := &ms.lanes[j]
		ln.Matcher = m
		ln.First, ln.Last = req.FirstEpoch, req.LastEpoch
		ln.Out = s.truthful
	}
	if compiled {
		ms.scan.ScanWindow(db, d.id, ms.lanes)
	} else {
		for j, req := range reqs {
			s := &ms.ss[j]
			s.grow(req.WindowSize())
			selectWindow(db, d.id, req, s)
		}
	}

	// Step 2: per-epoch losses for every lane.
	for j, req := range reqs {
		s := &ms.ss[j]
		d.lossPass(req, s)
		ms.charges[j] = privacy.WindowCharge{
			Querier:  events.Intern(req.Querier),
			First:    int64(req.FirstEpoch),
			Losses:   s.losses,
			Outcomes: s.outcomes,
		}
	}

	// Step 3: every querier's check-and-consume under one ledger lock, in
	// request order — the same charge sequence as the sequential path.
	d.ledger.ChargeWindowBatch(ms.charges)

	// Step 4: attribution and report assembly per lane, nonces drawn as one
	// block.
	base := newNonceBlock(n)
	for j, req := range reqs {
		reports[j], stats[j] = d.finish(req, ms.charges[j].Querier, &ms.ss[j], base+Nonce(j), nil)
	}
	return -1, nil
}
