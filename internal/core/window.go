package core

import (
	"repro/internal/attribution"
	"repro/internal/events"
)

// This file holds the epoch-window truth computation shared by report
// generation (Diagnostics.TrueHistogram) and the workload's IPA-like
// baseline (which computes attribution centrally on the full data): select
// the relevant events of every window epoch, attribute, clip. Keeping one
// implementation guarantees the two sides judge estimates against the same
// ground truth.

// RelevantWindow returns, for each epoch of req's window oldest-first, the
// events of device dev relevant to req — the paper's D^E_d filtered by the
// selector F_A. It only reads the database, so concurrent workers may call
// it during any phase with no concurrent Record/EvictBefore (the streaming
// service's day-clock discipline).
func RelevantWindow(db *events.Database, dev events.DeviceID, req *Request) [][]events.Event {
	views := db.WindowViewsInto(nil, dev, req.FirstEpoch, req.LastEpoch)
	out := make([][]events.Event, len(views))
	for i, v := range views {
		out[i] = events.Select(v.Events(), req.Selector)
	}
	return out
}

// AttributeWindow runs req's attribution function over per-epoch relevant
// events and clips the result to the report global sensitivity — the
// report-value computation applied to both the surviving (post-filter) and
// truthful (pre-filter) event sets.
func AttributeWindow(req *Request, perEpoch [][]events.Event) attribution.Histogram {
	h := req.Function.Attribute(perEpoch)
	attribution.ClipNorm(h, req.ReportSensitivity, req.PNorm)
	return h
}

// TrueReportValue computes the unbudgeted report value of one conversion
// request on d — its contribution to Q(D) that estimates are judged against
// — from the device's store, charging nothing, on a reusable workspace: the
// window and selection buffers come from s, so the central (IPA-like)
// generate stage allocates only the transient attribution histogram per
// conversion. Same reuse contract as GenerateReportBatch.
func (d *Device) TrueReportValue(req *Request, s *Scratch) float64 {
	k := req.WindowSize()
	if k <= 0 {
		return AttributeWindow(req, nil).Total()
	}
	s.grow(k)
	selectWindow(d.store(), d.id, req, s)
	return AttributeWindow(req, s.truthful).Total()
}
