package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/events"
)

// ipaFixtureEvents is the trace behind testdata/ckpt-2222b11-ipa. Two
// product-0 batches (days 14–17) spend ε^G on epochs -2 to 2; the product-1
// batch (days 1 and 18) walks fresh epoch -4 and is rejected at -2, leaving a
// zero row behind; every later batch is rejected too.
func ipaFixtureEvents() []events.Event {
	var evs []events.Event
	for dev := 1; dev <= 3; dev++ {
		evs = append(evs, events.Event{ID: events.EventID(100 + dev), Kind: events.KindImpression,
			Device: events.DeviceID(dev), Advertiser: events.Intern("nike.example"), Campaign: events.Intern("product-0")})
	}
	days := []int{1, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26}
	for i, day := range days {
		ev := conv(events.EventID(i+1), events.DeviceID(1+i%3), day)
		if day == 1 || day == 18 {
			ev.Product = events.Intern("product-1")
		}
		evs = append(evs, ev)
	}
	return evs
}

// ipaFixtureConfig is the scenario of testdata/ckpt-2222b11-ipa: IPA-like,
// fixed ε 1, ε^G 2, a snapshot every 2 days, group commits of 2.
func ipaFixtureConfig(dir string) Config {
	return Config{Source: &fakeSource{meta: testMeta(), evs: ipaFixtureEvents()},
		System: IPALike, FixedEpsilon: 1, EpsilonG: 2,
		CheckpointDir: dir, SnapshotEveryDays: 2, GroupCommitEvents: 2}
}

// TestResumesIPALikeDirectoryFrom2222b11 pins the central ledger's snapshot
// form across the change that made it a privacy.Ledger: the head's central
// rows and schema 6 stay as they were. testdata/ckpt-2222b11-ipa was written
// by commit 2222b11, whose central budget was a map of filters, with
// ipaFixtureConfig's run crashed three ingested events after the first
// snapshot commit that followed a rejected query. This code restores its
// central rows into a ledger whose Rows() re-encode to the newest head's
// central list byte for byte, and resumes it to the uninterrupted run's
// results with no recovery fallback.
func TestResumesIPALikeDirectoryFrom2222b11(t *testing.T) {
	svc, err := New(ipaFixtureConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/ckpt-2222b11-ipa")); err != nil {
		t.Fatal(err)
	}
	chain, fallbacks, err := checkpoint.NewStore(dir, nil).LoadChain(0)
	if err != nil || chain == nil || fallbacks != 0 {
		t.Fatalf("fixture does not load as an intact chain: %v (%d fallbacks)", err, fallbacks)
	}
	c, err := openChain(chain.Payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(c.head.Results, func(r resultState) bool { return !r.Executed }) ||
		!slices.ContainsFunc(c.head.Central, func(r centralState) bool { return r.Consumed == 0 }) {
		t.Fatal("fixture head holds no rejected query or no zero central row")
	}
	if svc, err = New(ipaFixtureConfig(dir)); err != nil {
		t.Fatal(err)
	}
	if err := svc.restore(c); err != nil {
		t.Fatal(err)
	}
	var rows []centralState
	for _, row := range svc.central.Rows() {
		rows = append(rows, centralState{Querier: row.Querier.String(), Epoch: int32(row.Epoch), Consumed: math.Float64bits(row.Consumed)})
	}
	got, _ := json.Marshal(rows)
	head, _ := json.Marshal(c.head.Central)
	if !bytes.Equal(got, head) {
		t.Fatalf("restored central ledger encodes as\n%s\nnewest head holds\n%s", got, head)
	}

	resumed, err := ResumeFrom(ipaFixtureConfig(dir), dir)
	if err != nil {
		t.Fatal(err)
	}
	run, err := resumed.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if run.Durability.RecoveryFallbacks != 0 {
		t.Errorf("resume took %d recovery fallbacks", run.Durability.RecoveryFallbacks)
	}
	gotRes, _ := json.Marshal(appendResultStates(nil, run.Results))
	wantRes, _ := json.Marshal(appendResultStates(nil, want.Results))
	if !bytes.Equal(gotRes, wantRes) {
		t.Errorf("resumed results\n%s\nuninterrupted\n%s", gotRes, wantRes)
	}
	if !slices.Equal(run.Central.Rows(), want.Central.Rows()) {
		t.Errorf("resumed central ledger %v, uninterrupted %v", run.Central.Rows(), want.Central.Rows())
	}
}

// cmFixtureEvents is the trace behind testdata/ckpt-62d74db: an impression
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

// cmFixtureConfig is the scenario of testdata/ckpt-62d74db: Cookie Monster,
// fixed ε 1, ε^G 100, two-day epochs and a four-day window (so retention
// evicts), LateDrop, a snapshot every 2 days compacted every 2 deltas,
// group commits of 2.
func cmFixtureConfig(dir string) Config {
	return Config{Source: &fakeSource{meta: testMeta(), evs: cmFixtureEvents()},
		FixedEpsilon: 1, EpsilonG: 100, EpochDays: 2, WindowDays: 4, LatePolicy: LateDrop,
		CheckpointDir: dir, SnapshotEveryDays: 2, BaseEveryDeltas: 2, GroupCommitEvents: 2}
}

// TestResumesCookieMonsterDirectoryFrom62d74db pins schema 6's read path:
// testdata/ckpt-62d74db was written by commit 62d74db, the last whose
// snapshots held key-sorted records, with cmFixtureConfig's run crashed at
// its 42nd ingested event — after eight deltas and four compactions, its
// head chain a compacted base and one delta whose eviction floor lies above
// records the base holds, with both late drops behind it. This code resumes
// it to the uninterrupted run's results and budgets with no recovery
// fallback, and the first generation the resumed run writes is a schema-7
// base, so no chain mixes schemas.
func TestResumesCookieMonsterDirectoryFrom62d74db(t *testing.T) {
	svc, err := New(cmFixtureConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/ckpt-62d74db")); err != nil {
		t.Fatal(err)
	}
	store := checkpoint.NewStore(dir, nil)
	chain, fallbacks, err := store.LoadChain(0)
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
	if c.schema != snapSchemaRecords || chain.Deltas == 0 || c.head.EventsDropped == 0 ||
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
		next, _, err := store.LoadChain(0)
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
