package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/serve"
)

// These tests cover the arithmetic every reported number passes through.
// None of them starts a workload: the whole package tests in well under a
// second.

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || !near(s.Median, 3) || !near(s.Q1, 2) || !near(s.Q3, 4) {
		t.Fatalf("summarize = %+v, want median 3, quartiles 2 and 4, n 5", s)
	}
	if s := summarize([]float64{7}); !near(s.Median, 7) || !near(s.Q1, 7) || !near(s.Q3, 7) {
		t.Fatalf("single sample: %+v", s)
	}
	// An even count takes the mean of the middle pair.
	if s := summarize([]float64{1, 2, 3, 10}); !near(s.Median, 2.5) {
		t.Fatalf("even-count median = %v, want 2.5", s.Median)
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

// The tail percentile is the highest one with at least ten samples beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{10000, 0.999}, // 10 beyond p99.9
		{9999, 0.99},   // 9.999 beyond p99.9 is not ten
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{199, 0.9},
		{100, 0.9},
		{99, 0.75},
		{40, 0.75},
		{39, 0.5},
		{3, 0.5},
	}
	for _, c := range cases {
		p, v := tailPercentile(ramp(c.n))
		if p != c.p {
			t.Errorf("n=%d: percentile %v, want %v", c.n, p, c.p)
		}
		if beyond := float64(c.n-1) - v; p > 0.5 && beyond < 9 {
			t.Errorf("n=%d: only %.1f samples beyond the p%v value", c.n, beyond, 100*p)
		}
	}
}

func TestQuantileOf(t *testing.T) {
	if got := quantileOf(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
	xs := []float64{9, 1, 5}
	if got := quantileOf(xs, 0.5); !near(got, 5) {
		t.Errorf("median = %v, want 5", got)
	}
	if !slices.Equal(xs, []float64{9, 1, 5}) {
		t.Errorf("quantileOf reordered its input: %v", xs)
	}
	if got := quantileOf(xs, 1); !near(got, 9) {
		t.Errorf("max = %v, want 9", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 90},
		// Two overlapping children and one apart: they cover 20–50 and 60–70.
		{ID: 3, Parent: 2, Name: "a", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "b", Start: 30, End: 50},
		{ID: 5, Parent: 2, Name: "c", Start: 60, End: 70},
		// A grandchild takes nothing from its grandparent.
		{ID: 6, Parent: 3, Name: "d", Start: 25, End: 30},
		// A child that outlives its parent is clipped to it.
		{ID: 7, Parent: 5, Name: "e", Start: 65, End: 200},
	}
	selfTimes(spans)
	want := map[int64]int64{1: 20, 2: 40, 3: 15, 4: 20, 5: 5, 6: 5, 7: 135}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
}

func TestCoveredLen(t *testing.T) {
	if got := coveredLen(nil, 0, 10); got != 0 {
		t.Errorf("no intervals: %d", got)
	}
	// Unsorted, nested, touching and out-of-range intervals.
	ivs := [][2]int64{{50, 60}, {0, 10}, {2, 4}, {10, 20}, {-30, -10}, {95, 300}}
	if got := coveredLen(ivs, 0, 100); got != 35 {
		t.Errorf("coveredLen = %d, want 20+10+5 = 35", got)
	}
}

func TestResultLags(t *testing.T) {
	// Days 0, 1, 3 and 5 have requests; day 2 and 4 have none.
	due := []int64{1000, 2000, 0, 4000, 0, 6000}
	// The SUT lists every result of the run; the poller's sightings stop at
	// the highest index it was ever shown, as runLoad returns them.
	fireDay := []int{0, 1, 1, 2, 3, 3, 5, 5}
	seen := []int64{2500, 4100, 0, 4200, 6300}
	lags, unseen := resultLags(fireDay, seen, due)
	// Result 0 fired on day 0 → counted from day 1's first request (2000).
	// Results 1, 2 fired on day 1 → from day 3's (4000); result 2 was skipped
	// by the poller. Result 3 fired on day 2 → also day 3's. Results 4, 5
	// fired on day 3 → day 5's (6000); result 5 lies past everything the
	// poller saw. Results 6, 7 fired on the final day and are left out.
	want := []float64{500e-6, 100e-6, 200e-6, 300e-6}
	if unseen != 2 {
		t.Errorf("unseen = %d, want 2 (results 2 and 5)", unseen)
	}
	if len(lags) != len(want) {
		t.Fatalf("lags = %v, want %v", lags, want)
	}
	for i := range want {
		if !near(lags[i], want[i]) {
			t.Errorf("lag %d = %v ms, want %v ms", i, lags[i], want[i])
		}
	}
	// A poller that saw nothing at all misses every result traffic released.
	if _, unseen := resultLags(fireDay, nil, due); unseen != 6 {
		t.Errorf("unseen with no sightings = %d, want 6", unseen)
	}
}

func TestAAGap(t *testing.T) {
	lower := metricDef{Name: "cpu_us_per_event", Unit: "us", Better: "lower"}
	if got := aaGap([]float64{10, 11, 10.5}, lower); !near(got, 0.1) {
		t.Errorf("lower-is-better gap = %v, want 1/10", got)
	}
	higher := metricDef{Name: "events_per_s", Unit: "1/s", Better: "higher"}
	if got := aaGap([]float64{90, 100}, higher); !near(got, 0.1) {
		t.Errorf("higher-is-better gap = %v, want 10/100", got)
	}
}

// The request cutter must keep every conversion of a day on lane 0 in trace
// order, keep a device on one lane per day, and lose nothing.
func TestPrepareRequestsKeepsConversionOrder(t *testing.T) {
	w, err := workloadByName("serve-paced-queries")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := genTrace(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds.Events = ds.Events[:min(len(ds.Events), 5000)]
	days, err := prepareRequests(ds, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for day, reqs := range days {
		laneOf := map[uint64]int{}
		lastConv := uint64(0)
		for _, rq := range reqs {
			var body serve.IngestRequest
			if err := json.Unmarshal(rq.Body, &body); err != nil {
				t.Fatal(err)
			}
			if len(body.Events) != rq.Events || rq.Events > 64 {
				t.Fatalf("day %d: body has %d events, request says %d", day, len(body.Events), rq.Events)
			}
			total += rq.Events
			for _, ev := range body.Events {
				if lane, ok := laneOf[ev.Device]; ok && lane != rq.Lane {
					t.Fatalf("day %d: device %d on lanes %d and %d", day, ev.Device, lane, rq.Lane)
				}
				laneOf[ev.Device] = rq.Lane
				if ev.Kind != "conversion" {
					continue
				}
				if rq.Lane != 0 {
					t.Fatalf("day %d: conversion %d sent on lane %d", day, ev.ID, rq.Lane)
				}
				if ev.ID <= lastConv {
					t.Fatalf("day %d: conversion %d after %d", day, ev.ID, lastConv)
				}
				lastConv = ev.ID
			}
		}
	}
	if total != len(ds.Events) {
		t.Fatalf("requests carry %d events, trace has %d", total, len(ds.Events))
	}
}

// BENCHMARK.json at the repository root restates spec.go for the acceptance
// harness; the two must not drift apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this module:", err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %+v, spec %q / %q", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range file.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v, spec %+v", i, m, d)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(file.PerLayer), len(perLayer))
	}
	for i, m := range file.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v, spec %+v", i, m, d)
		}
	}
}
