package main

import (
	"slices"

	"repro/internal/stats"
)

// summary is what the report prints for one metric of one workload: the
// median over passes, the quartiles beside it, and how many passes there
// were. The median is the value every end-to-end figure is quoted at.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize reduces per-pass values to their median and quartiles (type-7
// interpolation, the estimator internal/stats already uses for the paper's
// box plots).
func summarize(xs []float64) summary {
	s := stats.Summarize(xs)
	return summary{Median: s.Median, Q1: s.Q1, Q3: s.Q3, N: s.Count}
}

// tailPerMille are the candidates for "the highest percentile the sample
// supports", in thousandths so that the ten-beyond test is exact.
var tailPerMille = []int{999, 990, 950, 900, 750}

// tailPercentile returns the highest candidate percentile that still has at
// least ten samples beyond it, and the value there. A sample too small for
// any candidate reports its median (p = 0.5).
func tailPercentile(sorted []float64) (p, value float64) {
	n := len(sorted)
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			p = float64(pm) / 1000
			return p, stats.Quantile(sorted, p)
		}
	}
	return 0.5, stats.Quantile(sorted, 0.5)
}

// quantileOf sorts a copy of xs and returns its q-quantile, or 0 for an
// empty sample (a layer that did no work has no latency to report).
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return stats.Quantile(sorted, q)
}

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent names the span that caused this one (0 for a root). Times are
// wall-clock nanoseconds, comparable between the generator and the SUT child
// because both run on one host.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Self is filled in by selfTimes before the file is written.
	Self int64 `json:"self"`
}

// selfTimes sets every span's Self to its duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (concurrent handlers under one pass), so the covered part is the length of
// the union of the child intervals clipped to the parent.
func selfTimes(spans []span) {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - coveredLen(children[s.ID], s.Start, s.End)
	}
}

// coveredLen is the length of the union of ivs clipped to [lo, hi].
func coveredLen(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total int64
	end := lo
	for _, iv := range ivs {
		s, e := max(iv[0], end), min(iv[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// resultLags turns the poller's first-sighting times into per-result lags.
// fireDay[i] is the day result i fired on, for every result of the run (the
// SUT's own list, whose digest the pass has checked); seenNs[i] is when the
// poller first saw result i — 0, or an index past the end of seenNs, means
// never. A result that fired on day d is released when the first event of a
// later day reaches the service, so its lag is counted from the due time of
// the first request of the next day that has requests (dayFirstDueNs[d] is 0
// for a day without requests). Results of the final day are released by the
// shutdown, not by traffic, and are left out; any other result the poller
// never saw is counted as unseen.
func resultLags(fireDay []int, seenNs []int64, dayFirstDueNs []int64) (lagsMs []float64, unseen int) {
	nextDue := make([]int64, len(dayFirstDueNs)+1)
	for d := len(dayFirstDueNs) - 1; d >= 0; d-- {
		nextDue[d] = nextDue[d+1]
		if d+1 < len(dayFirstDueNs) && dayFirstDueNs[d+1] != 0 {
			nextDue[d] = dayFirstDueNs[d+1]
		}
	}
	for i, d := range fireDay {
		if d < 0 || d >= len(dayFirstDueNs) || nextDue[d] == 0 {
			continue // final-day result
		}
		if i >= len(seenNs) || seenNs[i] == 0 {
			unseen++
			continue
		}
		lagsMs = append(lagsMs, float64(seenNs[i]-nextDue[d])/1e6)
	}
	return lagsMs, unseen
}
