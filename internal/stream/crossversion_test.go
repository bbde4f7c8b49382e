package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/events"
)

// cmFixtureEvents is the trace behind testdata/ckpt-7fcfa9d: an impression
// and a conversion a day for 24 days over three devices, and two
// conversions re-delivered six days late (days 9 and 15), which LateDrop
// drops.
func cmFixtureEvents() []events.Event {
	var evs []events.Event
	id := events.EventID(1)
	for day := 0; day < 24; day++ {
		evs = append(evs, events.Event{ID: id, Kind: events.KindImpression, Day: day,
			Device: events.DeviceID(1 + day%3), Advertiser: events.Intern("nike.example"), Campaign: events.Intern("product-0")})
		id++
		evs = append(evs, conv(id, events.DeviceID(1+(day+1)%3), day))
		id++
		if day == 9 || day == 15 {
			evs = append(evs, conv(id, events.DeviceID(2), day-6))
			id++
		}
	}
	return evs
}

// cmFixtureConfig is the scenario of testdata/ckpt-7fcfa9d: Cookie Monster,
// fixed ε 1, ε^G 100, two-day epochs and a four-day window (so retention
// evicts), LateDrop, a snapshot every 2 days compacted every 2 deltas,
// group commits of 2.
func cmFixtureConfig(dir string) Config {
	return Config{Source: &fakeSource{meta: testMeta(), evs: cmFixtureEvents()},
		FixedEpsilon: 1, EpsilonG: 100, EpochDays: 2, WindowDays: 4, LatePolicy: LateDrop,
		CheckpointDir: dir, SnapshotEveryDays: 2, BaseEveryDeltas: 2, GroupCommitEvents: 2}
}

// TestResumesCookieMonsterDirectoryFrom7fcfa9d pins schema 8's read path:
// testdata/ckpt-7fcfa9d was written by commit 7fcfa9d, the last whose
// snapshot heads held each stream's pending conversions as a columnar blob
// and whose device blobs held fixed-width slots and per-epoch requested
// marks, with cmFixtureConfig's run crashed at its 43rd ingested event — its
// head chain a compacted base and one delta whose eviction floor lies above
// events the base logs, a stream with a pending conversion, devices with
// requested marks, both late drops behind it, and a version-2 WAL segment
// above the head holding records no generation covers. This code replays
// them, resumes the run to the uninterrupted run's results and budgets with
// no recovery fallback, and the resumed run writes a schema-9 base first.
func TestResumesCookieMonsterDirectoryFrom7fcfa9d(t *testing.T) {
	const fixture = "testdata/ckpt-7fcfa9d"
	store := checkpoint.NewStore(fixture, nil)
	chain, _, err := store.LoadChain()
	if err != nil || chain == nil {
		t.Fatalf("fixture does not load: %v", err)
	}
	c, err := openChain(chain.Payloads)
	if err != nil {
		t.Fatal(err)
	}
	pending, marks := 0, 0
	for _, p := range c.parts {
		for _, ss := range p.head.Streams {
			evs, err := events.UnmarshalEvents(ss.Pending)
			if err != nil {
				t.Fatal(err)
			}
			pending += len(evs)
		}
	}
	err = c.merge(func(_ DevEpoch, blob, _ []byte) error {
		_, err := decodeDeviceV8(blob, make(siteIntern),
			func(events.Site, events.Epoch, float64) error { return nil },
			func(events.Site, events.Epoch, events.Epoch) error { marks++; return nil })
		return err
	})
	if err != nil || pending == 0 || marks == 0 {
		t.Fatalf("fixture chain: %d pending conversions, %d requested marks (%v)", pending, marks, err)
	}
	maxGen, err := store.MaxGen()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(store.WALSegmentPath(maxGen))
	if err != nil || maxGen < chain.Gen || len(raw) <= 12 || binary.LittleEndian.Uint32(raw[8:]) != 2 {
		t.Fatalf("fixture's newest WAL segment %d: %d bytes (%v); want version 2 with records", maxGen, len(raw), err)
	}
	resumeCookieMonsterFixture(t, fixture, snapSchemaRuns)
}

// resumeCookieMonsterFixture resumes a copy of the committed directory
// fixture, written by an older commit with cmFixtureConfig's run, whose
// head chain has the given schema, a compacted base and a delta whose floor
// lies above the base's, and late drops and evictions behind it. The
// resumed run must reach the uninterrupted run's results, drops, evictions
// and consumed budget with no recovery fallback, and the first generation
// it writes must be a base of the current schema.
func resumeCookieMonsterFixture(t *testing.T, fixture string, schema uint32) {
	t.Helper()
	svc, err := New(cmFixtureConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
		t.Fatal(err)
	}
	store := checkpoint.NewStore(dir, nil)
	chain, fallbacks, err := store.LoadChain()
	if err != nil || chain == nil || fallbacks != 0 {
		t.Fatalf("fixture does not load as an intact chain: %v (%d fallbacks)", err, fallbacks)
	}
	c, err := openChain(chain.Payloads)
	if err != nil {
		t.Fatal(err)
	}
	base, err := parsePayload(chain.Payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if c.schema != schema || chain.Deltas == 0 || c.head.EventsDropped == 0 ||
		c.head.EvictedRecords == 0 || c.head.EvictFloor <= base.head.EvictFloor {
		t.Fatalf("fixture chain: schema %d, %d deltas, %d dropped, %d evicted, floor %d over the base's %d",
			c.schema, chain.Deltas, c.head.EventsDropped, c.head.EvictedRecords, c.head.EvictFloor, base.head.EvictFloor)
	}
	maxGen, err := store.MaxGen()
	if err != nil {
		t.Fatal(err)
	}

	cfg := cmFixtureConfig(dir)
	checked := false
	cfg.FaultHook = func(p FaultPoint) error {
		if checked || p != PointEventIngested {
			return nil
		}
		checked = true
		next, _, err := store.LoadChain()
		if err != nil || next == nil {
			return fmt.Errorf("loading the resumed chain: %v", err)
		}
		if next.Gen != maxGen+1 || next.Deltas != 0 || binary.LittleEndian.Uint32(next.Payloads[0]) != snapSchemaVersion {
			return fmt.Errorf("resumed run's first generation: %d with %d deltas, schema %d; want base %d, schema %d",
				next.Gen, next.Deltas, binary.LittleEndian.Uint32(next.Payloads[0]), maxGen+1, snapSchemaVersion)
		}
		return nil
	}
	resumed, err := ResumeFrom(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	run, err := resumed.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("resumed run ingested no event")
	}
	if run.Durability.RecoveryFallbacks != 0 {
		t.Errorf("resume took %d recovery fallbacks", run.Durability.RecoveryFallbacks)
	}
	if run.EventsDropped != want.EventsDropped || run.EvictedRecords != want.EvictedRecords {
		t.Errorf("resumed run dropped %d and evicted %d, uninterrupted %d and %d",
			run.EventsDropped, run.EvictedRecords, want.EventsDropped, want.EvictedRecords)
	}
	gotRes, _ := json.Marshal(appendResultStates(nil, run.Results))
	wantRes, _ := json.Marshal(appendResultStates(nil, want.Results))
	if !bytes.Equal(gotRes, wantRes) {
		t.Errorf("resumed results\n%s\nuninterrupted\n%s", gotRes, wantRes)
	}
	if run.TotalConsumed != want.TotalConsumed {
		t.Errorf("resumed run consumed %v, uninterrupted %v", run.TotalConsumed, want.TotalConsumed)
	}
}
