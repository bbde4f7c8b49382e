package core

import (
	"repro/internal/events"
	"repro/internal/privacy"
)

// Report generation per device visit (DESIGN.md §10): every request a device
// answers in one visit runs Listing 1 through the same body — its own window
// selection and per-epoch losses — while the visit batches what it can: one
// ledger lock for every querier's check-and-consume, one nonce-counter
// operation for the whole visit. GenerateReport is a visit of one.

// MultiScratch is the reusable per-worker workspace of GenerateReportBatch:
// one Scratch per request plus the batched charge table. The reuse contract
// matches Scratch — one goroutine at a time, nothing observed from a previous
// call may be retained except the returned reports. The zero value is ready
// for use.
type MultiScratch struct {
	ss      []Scratch
	charges []privacy.WindowCharge
}

// grow resizes the request-indexed tables for n requests, keeping the
// buffers of existing Scratches.
func (ms *MultiScratch) grow(n int) {
	if cap(ms.ss) < n {
		ms.ss = append(ms.ss[:cap(ms.ss)], make([]Scratch, n-cap(ms.ss))...)
		ms.charges = make([]privacy.WindowCharge, cap(ms.ss))
	}
	ms.ss, ms.charges = ms.ss[:n], ms.charges[:n]
}

// GenerateReportBatch runs Listing 1 for every request of one device in a
// single device visit. reports[j] and stats[j] receive request j's outputs
// (both must be pre-sized to len(reqs)); the slots are written exactly as
// len(reqs) one-request visits in slice order would fill them — same
// histograms, flags, and stats, same ledger outcomes — with two fixed costs
// paid once per visit:
//
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

	// Steps 1 and 2: each request's relevant events per window epoch (see
	// window.go for the shared truth computation) and per-epoch losses.
	for j, req := range reqs {
		s := &ms.ss[j]
		s.grow(req.WindowSize())
		selectWindow(db, d.id, req, s)
		d.lossPass(req, s)
		ms.charges[j] = privacy.WindowCharge{
			Querier:  events.Intern(req.Querier),
			First:    int64(req.FirstEpoch),
			Losses:   s.losses,
			Outcomes: s.outcomes,
		}
	}

	// Step 3: every querier's atomic check-and-consume under one ledger
	// lock, in request order; on Halt an epoch's events are dropped
	// (replaced by ∅) and nothing is charged.
	d.ledger.ChargeWindowBatch(ms.charges)

	// Step 4: attribution and report assembly per request, nonces drawn as
	// one block.
	base := newNonceBlock(n)
	for j, req := range reqs {
		reports[j], stats[j] = d.finish(req, ms.charges[j].Querier, &ms.ss[j], base+Nonce(j))
	}
	return -1, nil
}
