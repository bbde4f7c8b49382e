package dataset

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/events"
)

// drain collects every event from a source, checking the day-order
// contract as it goes.
func drain(t *testing.T, s Source) []events.Event {
	t.Helper()
	var out []events.Event
	for {
		ev, ok := s.Next()
		if !ok {
			// A drained source keeps reporting done.
			if _, again := s.Next(); again {
				t.Fatal("source yielded an event after reporting done")
			}
			return out
		}
		if n := len(out); n > 0 && ev.Before(out[n-1]) {
			t.Fatalf("event %d (day %d, id %d) out of order after (day %d, id %d)",
				n, ev.Day, ev.ID, out[n-1].Day, out[n-1].ID)
		}
		out = append(out, ev)
	}
}

func TestSliceSourceStreamsInDayOrder(t *testing.T) {
	ds, err := Micro(DefaultMicroConfig())
	if err != nil {
		t.Fatal(err)
	}
	evs := drain(t, ds.Stream())
	if len(evs) != len(ds.Events) {
		t.Fatalf("streamed %d events, dataset has %d", len(evs), len(ds.Events))
	}
	// The dataset's own order must be untouched (micro generates
	// conversions before impressions, not in day order).
	if m := Materialize(ds.Stream()); m.Conversions() != ds.Conversions() ||
		m.Impressions() != ds.Impressions() {
		t.Fatal("materialized stream lost events")
	}
	meta := ds.Stream().Meta()
	if meta.PopulationDevices != ds.PopulationDevices || meta.DurationDays != ds.DurationDays ||
		len(meta.Advertisers) != len(ds.Advertisers) {
		t.Fatalf("meta %+v does not match dataset", meta)
	}
	if meta.Epochs(7) != ds.Epochs(7) {
		t.Fatalf("meta epochs %d != dataset epochs %d", meta.Epochs(7), ds.Epochs(7))
	}
}

func TestSliceSourceCoversCriteo(t *testing.T) {
	cfg := DefaultCriteoConfig()
	cfg.Advertisers = 20
	cfg.Users = 2000
	cfg.TotalConversions = 4000
	ds, err := Criteo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := drain(t, ds.Stream())
	if len(evs) != len(ds.Events) {
		t.Fatalf("streamed %d events, dataset has %d", len(evs), len(ds.Events))
	}
}

func TestSyntheticSourceDeterministicAndDayOrdered(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Population = 2000
	cfg.BatchSize = 200
	a, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evA, evB := drain(t, a), drain(t, b)
	if len(evA) == 0 {
		t.Fatal("synthetic source yielded no events")
	}
	if len(evA) != len(evB) {
		t.Fatalf("replayed stream has %d events, want %d", len(evB), len(evA))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("event %d differs between identically-seeded sources:\n  %+v\n  %+v",
				i, evA[i], evB[i])
		}
	}

	// Exactly Products × QueriesPerProduct full batches of conversions,
	// each over distinct devices.
	ds := Materialize(func() Source { s, _ := NewSynthetic(cfg); return s }())
	wantConvs := cfg.Products * cfg.QueriesPerProduct * cfg.BatchSize
	if got := ds.Conversions(); got != wantConvs {
		t.Fatalf("conversions = %d, want %d", got, wantConvs)
	}
	perBatchDevices := make(map[events.DeviceID]int)
	batch := 0
	seenInBatch := 0
	for _, ev := range ds.Events {
		if !ev.IsConversion() {
			continue
		}
		if n := perBatchDevices[ev.Device]; n == batch+1 {
			t.Fatalf("device %d converted twice in batch %d", ev.Device, batch)
		}
		perBatchDevices[ev.Device] = batch + 1
		if seenInBatch++; seenInBatch == cfg.BatchSize {
			seenInBatch = 0
			batch++
		}
	}
}

func TestSyntheticSourceValidates(t *testing.T) {
	bad := DefaultSyntheticConfig()
	bad.BatchSize = bad.Population + 1
	if _, err := NewSynthetic(bad); err == nil {
		t.Fatal("batch larger than population accepted")
	}
	bad = DefaultSyntheticConfig()
	bad.DurationDays = bad.Products*bad.QueriesPerProduct - 1
	if _, err := NewSynthetic(bad); err == nil {
		t.Fatal("more batches than days accepted")
	}
}

// TestStreamAliasesOrderedTrace: Stream reads a trace already in strictly
// increasing (Day, ID) order in place and copies and sorts any other, the
// two yielding the same event sequence, and neither ever writes the
// dataset's events.
func TestStreamAliasesOrderedTrace(t *testing.T) {
	ds, err := Micro(DefaultMicroConfig())
	if err != nil {
		t.Fatal(err)
	}
	orig := slices.Clone(ds.Events)
	ordered := *ds
	ordered.Events = slices.Clone(ds.Events)
	slices.SortStableFunc(ordered.Events, func(a, b events.Event) int {
		return cmp.Or(cmp.Compare(a.Day, b.Day), cmp.Compare(a.ID, b.ID))
	})
	orderedOrig := slices.Clone(ordered.Events)

	copied, aliased := ds.Stream(), ordered.Stream()
	if &copied.events[0] == &ds.Events[0] {
		t.Fatal("an unordered trace was streamed in place")
	}
	if &aliased.events[0] != &ordered.Events[0] {
		t.Fatal("an ordered trace was copied")
	}
	if got, want := drain(t, aliased), drain(t, copied); !slices.Equal(got, want) {
		t.Fatal("the aliased and the sorted trace stream different events")
	}
	if !slices.Equal(ds.Events, orig) || !slices.Equal(ordered.Events, orderedOrig) {
		t.Fatal("Stream wrote the dataset's events")
	}

	// Equal (Day, ID) keys are not strictly increasing: such a trace is
	// copied, so the sort alone decides their order, as it always has.
	dup := ordered
	dup.Events = append(slices.Clone(ordered.Events[:2]), ordered.Events[1])
	dup.Events[2].Value++
	if src := dup.Stream(); &src.events[0] == &dup.Events[0] {
		t.Fatal("a trace with equal keys was streamed in place")
	}
}
