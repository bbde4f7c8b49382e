package stream

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
)

// The fold is the definition of what a delta means, so these tests
// enumerate it: exhaustively at small bounds against a map-overlay
// reference, at every cadence tick of a real run against the full snapshot,
// and under arbitrary bytes.

// section encodes entries (ascending keys expected of the caller) the way
// capture does.
func section(keys []DevEpoch, blobs [][]byte) []byte {
	var buf []byte
	for i, key := range keys {
		var mark int
		buf, mark = openEntry(buf, key)
		buf = append(buf, blobs[i]...)
		closeLen(buf, mark)
	}
	return buf
}

// TestFoldExhaustive folds every chain of up to three generations over
// 2 devices × 2 epochs, each entry absent or one of two values, and holds
// the k-way merge to the map overlay.
func TestFoldExhaustive(t *testing.T) {
	keys := []DevEpoch{{Device: 1, Epoch: 0}, {Device: 1, Epoch: 1}, {Device: 2, Epoch: 0}, {Device: 2, Epoch: 1}}
	values := [][]byte{nil, {0xa1}, {0xb2, 0xb2}} // index 0 = absent
	const states = 3 * 3 * 3 * 3
	var gens [states][4]int
	var secs [states][]byte
	for g := range gens {
		var ks []DevEpoch
		var bs [][]byte
		for k, rem := 0, g; k < 4; k, rem = k+1, rem/3 {
			if gens[g][k] = rem % 3; gens[g][k] != 0 {
				ks, bs = append(ks, keys[k]), append(bs, values[gens[g][k]])
			}
		}
		secs[g] = section(ks, bs)
	}
	// The reference: overlay the generations into a map, newest last.
	reference := func(out []byte, chain []int) []byte {
		m := map[int]int{}
		for _, g := range chain {
			for k, v := range gens[g] {
				if v != 0 {
					m[k] = v
				}
			}
		}
		for k, key := range keys {
			if v := m[k]; v != 0 {
				out = append(append(out, byte(key.Device), byte(key.Epoch)), values[v]...)
			}
		}
		return out
	}
	maxLen := 3
	if testing.Short() {
		maxLen = 2
	}
	folds := 0
	var chain []int
	var got, want []byte
	var walk func()
	walk = func() {
		if len(chain) > 0 {
			in := make([][]byte, len(chain))
			for i, g := range chain {
				in[i] = secs[g]
			}
			got = got[:0]
			err := mergeSections(in, func(key DevEpoch, blob, raw []byte) error {
				if len(raw) != entryHeaderLen+len(blob) || &raw[len(raw)-1] != &blob[len(blob)-1] {
					return fmt.Errorf("raw bytes of %v do not end in its blob", key)
				}
				got = append(append(got, byte(key.Device), byte(key.Epoch)), blob...)
				return nil
			})
			if want = reference(want[:0], chain); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("chain %v: merge gave %x (%v), overlay %x", chain, got, err, want)
			}
			folds++
		}
		if len(chain) == maxLen {
			return
		}
		for g := 0; g < states; g++ {
			chain = append(chain, g)
			walk()
			chain = chain[:len(chain)-1]
		}
	}
	walk()
	t.Logf("%d folds", folds)
}

// recordEvents returns device d's events at epoch e in db.
func recordEvents(db *events.Database, d events.DeviceID, e events.Epoch) []events.Event {
	return db.WindowViewsInto(nil, d, e, e)[0].Events()
}

// logRun encodes evs as one run of an event log, header included, the
// entries flagged in dropped as late drops; no events, no run.
func logRun(evs []events.Event, dropped []bool) []byte {
	if len(evs) == 0 {
		return nil
	}
	var w runWriter
	buf := w.open(nil)
	for i, ev := range evs {
		buf = w.add(buf, ev, dropped != nil && dropped[i])
	}
	return w.close(buf)
}

// TestEventLogFoldExhaustive enumerates every chain of up to three payloads
// — a base, then deltas — whose event logs hold one run of up to two events
// each over 2 devices × 3 epochs, under every eviction floor. Each chain,
// restored into a fresh store, must match a map model: per record, the
// events at or above the floor in (Day, ID) order, ties in arrival order.
// Compaction's fold of the chain, restored, must give the same store.
// Generation g's events carry ID 9-g, so a later generation's event sorts
// before an earlier one's in its record and restore inserts in place; a
// log's two events tie on (Day, ID), and their values tell arrival order
// apart. The fold is the log section compaction writes
// (snapChain.appendLog: whole runs dropped or copied, the straddling one
// re-encoded); TestFoldMatchesSnapshotAtEveryTick restores whole compacted
// payloads.
func TestEventLogFoldExhaustive(t *testing.T) {
	const epochDays, maxEvents = 7, 2
	type slot struct {
		dev   events.DeviceID
		epoch events.Epoch
	}
	var slots []slot
	for dev := events.DeviceID(1); dev <= 2; dev++ {
		for e := events.Epoch(0); e < 3; e++ {
			slots = append(slots, slot{dev, e})
		}
	}
	event := func(g, i int, s slot) events.Event {
		return events.Event{ID: events.EventID(9 - g), Kind: events.KindImpression, Device: s.dev,
			Day: int(s.epoch) * epochDays, Value: float64(10*g + i)}
	}
	// logs lists every log a generation can carry, as slot indices.
	logs := [][]int{nil}
	for n := 1; n <= maxEvents; n++ {
		for _, l := range logs {
			if len(l) == n-1 {
				for k := range slots {
					logs = append(logs, append(slices.Clone(l), k))
				}
			}
		}
	}
	maxLen := 3
	if testing.Short() {
		maxLen = 2
	}
	// encoded[g][l] is log l as generation g writes it.
	encoded := make([][][]byte, maxLen)
	for g := range encoded {
		for _, l := range logs {
			var evs []events.Event
			for i, k := range l {
				evs = append(evs, event(g, i, slots[k]))
			}
			encoded[g] = append(encoded[g], logRun(evs, nil))
		}
	}
	restored := func(c *snapChain) (*events.Database, error) {
		svc := &Service{Engine: &Engine{db: events.NewDatabase()}}
		return svc.db, svc.restoreEvents(c)
	}
	var model [6][]events.Event // by slot index
	var chain []int
	var floor events.Epoch
	label := func(what string) string { return fmt.Sprintf("chain %v floor %d: %s", chain, floor, what) }
	check := func(what string, db *events.Database) {
		t.Helper()
		records := 0
		for k, s := range slots {
			if len(model[k]) > 0 {
				records++
			}
			if got := recordEvents(db, s.dev, s.epoch); !slices.Equal(got, model[k]) {
				t.Fatalf("%s record %v = %v, model %v", label(what), s, got, model[k])
			}
		}
		if db.NumRecords() != records {
			t.Fatalf("%s %d records, model %d", label(what), db.NumRecords(), records)
		}
	}
	byDayID := func(a, b events.Event) int { return cmp.Or(cmp.Compare(a.Day, b.Day), cmp.Compare(a.ID, b.ID)) }
	folds := 0
	var walk func()
	walk = func() {
		if len(chain) > 0 {
			for floor = 0; floor <= 3; floor++ {
				c := &snapChain{schema: snapSchemaVersion, head: &snapHead{
					Config: snapConfig{EpochDays: epochDays}, EvictFloor: int32(floor)}}
				for k := range model {
					model[k] = model[k][:0]
				}
				for g, l := range chain {
					c.parts = append(c.parts, &snapParts{schema: snapSchemaVersion, sec: [numSections][]byte{secEvents: encoded[g][l]}})
					for i, k := range logs[l] {
						if s := slots[k]; s.epoch >= floor {
							model[k] = append(model[k], event(g, i, s))
						}
					}
				}
				for k := range model {
					slices.SortStableFunc(model[k], byDayID)
				}
				db, err := restored(c)
				if err != nil {
					t.Fatalf("%s %v", label("restore"), err)
				}
				check("restored", db)
				log, err := c.appendLog(nil)
				if err != nil {
					t.Fatalf("%s %v", label("fold"), err)
				}
				folded := &snapChain{schema: snapSchemaVersion, head: c.head,
					parts: []*snapParts{{schema: snapSchemaVersion, sec: [numSections][]byte{secEvents: log}}}}
				if db, err = restored(folded); err != nil {
					t.Fatalf("%s %v", label("restoring the fold"), err)
				}
				check("fold restored", db)
				folds++
			}
		}
		if len(chain) == maxLen {
			return
		}
		for l := range logs {
			chain = append(chain, l)
			walk()
			chain = chain[:len(chain)-1]
		}
	}
	walk()
	t.Logf("%d folds", folds)
}

// TestRunFloorCutExhaustive holds compaction's cut of the event log to its
// definition: for every run of up to four entries over 2 devices × 3
// epochs, each entry a store entry or a late drop, at every floor, the cut
// (snapChain.appendLog over the run alone: dropped whole, copied whole, or
// re-encoded from its store entries at or above the floor) restored into a
// fresh store equals the run decoded with its late drops and its entries
// below the floor filtered out; the cut keeps no store entry below the
// floor; and the cut of a cut is itself. Entry i is
// stamped with day epoch·7 + i and ID 9 - i, so entries arrive out of
// (Day, ID) order within a record and restore must insert in place.
func TestRunFloorCutExhaustive(t *testing.T) {
	const epochDays, maxEntries = 7, 4
	type slot struct {
		dev   events.DeviceID
		epoch events.Epoch
	}
	var slots []slot
	for dev := events.DeviceID(1); dev <= 2; dev++ {
		for e := events.Epoch(0); e < 3; e++ {
			slots = append(slots, slot{dev, e})
		}
	}
	event := func(i int, s slot) events.Event {
		return events.Event{ID: events.EventID(9 - i), Kind: events.KindConversion, Device: s.dev,
			Day: int(s.epoch)*epochDays + i, Advertiser: events.Intern("nike.example"), Value: float64(i)}
	}
	restore := func(c *snapChain) (*events.Database, error) {
		svc := &Service{Engine: &Engine{db: events.NewDatabase()}}
		return svc.db, svc.restoreEvents(c)
	}
	chainOf := func(log []byte, floor events.Epoch) *snapChain {
		return &snapChain{schema: snapSchemaVersion,
			head:  &snapHead{Config: snapConfig{EpochDays: epochDays}, EvictFloor: int32(floor)},
			parts: []*snapParts{{schema: snapSchemaVersion, sec: [numSections][]byte{secEvents: log}}}}
	}
	var picks []int // slot index·2 + dropped
	cuts := 0
	var walk func()
	walk = func() {
		var evs []events.Event
		var dropped []bool
		for i, p := range picks {
			evs, dropped = append(evs, event(i, slots[p/2])), append(dropped, p%2 == 1)
		}
		run := logRun(evs, dropped)
		for floor := events.Epoch(0); floor <= 3; floor++ {
			label := fmt.Sprintf("picks %v floor %d", picks, floor)
			cut, err := chainOf(run, floor).appendLog(nil)
			if err != nil {
				t.Fatalf("%s: cut: %v", label, err)
			}
			got, err := restore(chainOf(cut, floor))
			if err != nil {
				t.Fatalf("%s: restoring the cut: %v", label, err)
			}
			want := events.NewDatabase()
			for i, ev := range evs {
				if e := events.EpochOfDay(ev.Day, epochDays); !dropped[i] && e >= floor {
					want.Record(e, ev)
				}
			}
			for _, s := range slots {
				if g, w := recordEvents(got, s.dev, s.epoch), recordEvents(want, s.dev, s.epoch); !slices.Equal(g, w) {
					t.Fatalf("%s: record %v restored from the cut %v, filtered %v", label, s, g, w)
				}
			}
			if got.NumRecords() != want.NumRecords() {
				t.Fatalf("%s: %d records restored from the cut, %d filtered", label, got.NumRecords(), want.NumRecords())
			}
			// The cut keeps no store entry below the floor: runs wholly
			// below it are gone, and the straddling one lost its entries
			// below it.
			err = chainOf(cut, floor).runs(func(_, _ int, entries, _ []byte) error {
				var dec events.RunDecoder
				_, err := dec.Decode(entries, func(ev events.Event, dropped bool) error {
					if e := events.EpochOfDay(ev.Day, epochDays); !dropped && e < floor {
						return fmt.Errorf("entry %+v at epoch %d", ev, e)
					}
					return nil
				})
				return err
			})
			if err != nil {
				t.Fatalf("%s: the cut keeps a store entry below the floor: %v", label, err)
			}
			if again, err := chainOf(cut, floor).appendLog(nil); err != nil || !bytes.Equal(again, cut) {
				t.Fatalf("%s: the cut's cut differs (%v)", label, err)
			}
			cuts++
		}
		if len(picks) == maxEntries {
			return
		}
		for p := 0; p < 2*len(slots); p++ {
			picks = append(picks, p)
			walk()
			picks = picks[:len(picks)-1]
		}
	}
	walk()
	t.Logf("%d cuts", cuts)
}

// hostileTrace is a seeded synthetic trace with late re-deliveries mixed in:
// long enough for retention to evict epochs, messy enough for LateDrop to
// leave drop marks.
func hostileTrace(t *testing.T, seed int64) (dataset.Meta, []events.Event) {
	t.Helper()
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Seed = uint64(seed)
	cfg.Population = 300
	cfg.BatchSize = 40
	cfg.DurationDays = 90
	cfg.ImpressionsPerDay = 0.3
	src, err := dataset.NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Materialize(src)
	rng := rand.New(rand.NewSource(seed))
	var evs []events.Event
	nextID := events.EventID(1 << 40)
	for i, ev := range ds.Events {
		evs = append(evs, ev)
		if i > 200 && rng.Intn(25) == 0 {
			late := ds.Events[rng.Intn(i-100)]
			late.ID = nextID
			nextID++
			evs = append(evs, late)
		}
	}
	return src.Meta(), evs
}

// sameButClocks compares two payloads byte for byte, except for two
// readings no restore can reproduce, zeroed on both sides first: the stall
// maxima — wall-clock readings the cadence tick updates between its capture
// and the fault point a test can observe — and the nonce floor, the
// process-wide counter that a live run in the same process goes on raising.
func sameButClocks(t *testing.T, label string, got, want []byte) {
	t.Helper()
	a, err := parsePayload(got)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	b, err := parsePayload(want)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, h := range []*snapHead{a.head, b.head} {
		h.Durability.MaxSnapshotStall, h.Durability.MaxCaptureStall = 0, 0
		h.NonceFloor = 0
	}
	ha, _ := json.Marshal(a.head)
	hb, _ := json.Marshal(b.head)
	if !bytes.Equal(ha, hb) {
		t.Fatalf("%s: heads differ:\n%s\n%s", label, ha, hb)
	}
	for i := range a.sec {
		if !bytes.Equal(a.sec[i], b.sec[i]) {
			t.Fatalf("%s: section %d differs (%d vs %d bytes)", label, i, len(a.sec[i]), len(b.sec[i]))
		}
	}
}

// restoredSnapshot restores a chain into a fresh service for cfg's scenario
// and returns that service's full snapshot and the chain's folded head.
func restoredSnapshot(cfg Config, payloads [][]byte) ([]byte, *snapHead, error) {
	c, err := openChain(payloads)
	if err != nil {
		return nil, nil, err
	}
	fresh, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := fresh.restore(c); err != nil {
		return nil, nil, err
	}
	p, err := fresh.capture(false)
	return p, c.head, err
}

// TestFoldMatchesSnapshotAtEveryTick is the service-level property: at every
// cadence tick of a run with eviction, late drops and base compactions, the
// chain on disk — and compaction's fold of it — restored into a fresh
// service gives the full snapshot the live service took at the previous
// tick's capture. Compaction lands in order: at the tick after each
// compaction decision, the chain on disk is the base compacted at the
// previous tick's delta, alone.
func TestFoldMatchesSnapshotAtEveryTick(t *testing.T) {
	meta, evs := hostileTrace(t, 11)
	scenario := Config{Source: &fakeSource{meta: meta}, EpsilonG: 2, Seed: 5, LatePolicy: LateDrop}
	var svc *Service
	var want []byte // full snapshot at the previous tick's capture
	compared, inOrder := 0, 0
	// decided marks a tick that decided a compaction, whose delta carries
	// it; harvested marks the tick after, which harvested that compaction.
	decided, harvested := false, false
	cfg := scenario
	cfg.Source = &fakeSource{meta: meta, evs: evs}
	cfg.CheckpointDir, cfg.SnapshotEveryDays, cfg.BaseEveryDeltas = t.TempDir(), 5, 3
	cfg.FaultHook = func(p FaultPoint) error {
		if p == PointBaseCompacted {
			decided = true
		}
		if p != PointDeltaCaptured {
			return nil
		}
		check := harvested
		harvested, decided = decided, false
		// The previous tick's generation has been harvested, so the
		// chain on disk ends at it (or at the base it compacted into).
		if want != nil {
			chain, _, err := svc.store.LoadChain()
			if err != nil || chain == nil {
				return fmt.Errorf("loading chain: %v", err)
			}
			if check {
				if chain.Deltas != 0 || chain.BaseGen != svc.headGen {
					t.Fatalf("tick %d: the chain on disk is base %d and %d deltas, want the base compacted at %d alone",
						compared, chain.BaseGen, chain.Deltas, svc.headGen)
				}
				inOrder++
			}
			folded, err := foldChain(chain.Payloads)
			if err != nil {
				return err
			}
			wantHead, err := parsePayload(want)
			if err != nil {
				return err
			}
			for name, payloads := range map[string][][]byte{"chain": chain.Payloads, "fold": {folded}} {
				got, head, err := restoredSnapshot(scenario, payloads)
				if err != nil {
					return fmt.Errorf("restoring the %s: %w", name, err)
				}
				label := fmt.Sprintf("tick %d (%s of %d deltas)", compared, name, chain.Deltas)
				if head.NonceFloor != wantHead.head.NonceFloor {
					t.Fatalf("%s: nonce floor %d, live %d", label, head.NonceFloor, wantHead.head.NonceFloor)
				}
				sameButClocks(t, label, got, want)
			}
			compared++
		}
		var err error
		want, err = svc.capture(false)
		return err
	}
	var err error
	if svc, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	run, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if compared < 10 || run.EvictedRecords == 0 || run.EventsDropped == 0 || inOrder < 3 {
		t.Fatalf("run exercises too little: %d ticks compared, %d evicted, %d dropped, %d compactions checked",
			compared, run.EvictedRecords, run.EventsDropped, inOrder)
	}
}

// TestDirtyTrackingArmedOnlyForDeltas pins when the delta trackers hold
// state: never on a WAL-only service (no snapshot cadence, so nothing would
// drain them) — fresh, crashed mid-run, or resumed from that crash — and on a
// service with a cadence only until its final base, after which no delta can
// follow.
func TestDirtyTrackingArmedOnlyForDeltas(t *testing.T) {
	meta, evs := hostileTrace(t, 11)
	errCrash := errors.New("crash")
	config := func(dir string, every, crashAt int) Config {
		ingested := 0
		return Config{
			Source: &fakeSource{meta: meta, evs: evs}, EpsilonG: 2, Seed: 5, LatePolicy: LateDrop,
			CheckpointDir: dir, SnapshotEveryDays: every, GroupCommitEvents: 64,
			FaultHook: func(p FaultPoint) error {
				if p == PointEventIngested {
					if ingested++; ingested == crashAt {
						return errCrash
					}
				}
				return nil
			},
		}
	}
	tracking := func(s *Service) bool {
		return s.ledgerVers != nil || s.touched != nil || s.plan.dirty != nil || s.log != nil
	}
	for _, every := range []int{0, 5} {
		dir := t.TempDir()
		svc, err := New(config(dir, every, len(evs)/2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Serve(); !errors.Is(err, errCrash) {
			t.Fatalf("cadence %d: crash run: %v", every, err)
		}
		if got, want := tracking(svc), every > 0; got != want {
			t.Errorf("cadence %d: tracking at the crash = %v, want %v", every, got, want)
		}
		resumed, err := ResumeFrom(config(dir, every, 0), dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tracking(resumed), every > 0; got != want {
			t.Errorf("cadence %d: tracking after recovery = %v, want %v", every, got, want)
		}
		run, err := resumed.Serve()
		if err != nil {
			t.Fatal(err)
		}
		if tracking(resumed) {
			t.Errorf("cadence %d: finished service still holds dirty state", every)
		}
		if every > 0 && run.Durability.SnapshotCaptures == 0 {
			t.Errorf("cadence %d: run captured no delta", every)
		}
	}
}

// sampleConfig is the scenario samplePayloads runs, over evs and durable in
// dir ("" = in memory). The IPA-like variant's ε^G of 2 admits the first two
// of the scenario's four queries, whose windows all cover epochs -4 to 0, and
// rejects the other two.
func sampleConfig(evs []events.Event, dir string, central bool) Config {
	cfg := Config{Source: &fakeSource{meta: testMeta(), evs: evs}, FixedEpsilon: 1, EpsilonG: 100}
	if central {
		cfg.System, cfg.EpsilonG = IPALike, 2
	}
	if dir != "" {
		cfg.CheckpointDir, cfg.SnapshotEveryDays, cfg.BaseEveryDeltas = dir, 2, 100
	}
	return cfg
}

// sampleService builds a service for sampleConfig's scenario.
func sampleService(t testing.TB, evs []events.Event, dir string, central bool) *Service {
	t.Helper()
	svc, err := New(sampleConfig(evs, dir, central))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// samplePayloads runs a small durable service, on-device or IPA-like, and
// returns one full base payload and one delta payload it committed, each with
// its head's wall-clock readings zeroed (withoutStalls), so that a fresh
// process builds the same bytes.
func samplePayloads(t testing.TB, central bool) (base, delta []byte) {
	t.Helper()
	dir := t.TempDir()
	// An impression per device, so the conversions' reports find relevant
	// events and charge ledger slots.
	var evs []events.Event
	for dev := 1; dev <= 3; dev++ {
		evs = append(evs, events.Event{ID: events.EventID(100 + dev), Kind: events.KindImpression,
			Device: events.DeviceID(dev), Advertiser: events.Intern("nike.example"), Campaign: events.Intern("product-0")})
	}
	// The ninth conversion stays pending: the final base carries a run.
	for i := 1; i <= 9; i++ {
		evs = append(evs, conv(events.EventID(i), events.DeviceID(1+i%3), i/2))
	}
	run, err := sampleService(t, evs, dir, central).Serve()
	if err != nil {
		t.Fatal(err)
	}
	if central && !slices.ContainsFunc(run.Results, func(r Result) bool { return !r.Executed }) {
		t.Fatal("IPA-like sample run rejected no query")
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names { // sorted: bases first, the final base last of them
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := checkpoint.DecodeGenFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		if frame.Kind == checkpoint.GenKindBase {
			base = frame.Payload
		} else if delta == nil {
			delta = frame.Payload
		}
	}
	if base == nil || delta == nil {
		t.Fatal("run left no base or no delta")
	}
	return withoutStalls(t, base), withoutStalls(t, delta)
}

// withoutStalls returns payload p with its head's MaxSnapshotStall and
// MaxCaptureStall — wall-clock readings, which no two runs repeat — zeroed,
// and with them DeltaBytes and BaseBytes, which total the earlier payloads'
// lengths and so the digits of their stalls; its sections are as they were.
// The service keeps measuring all four; only the test payloads leave them
// out.
func withoutStalls(t testing.TB, p []byte) []byte {
	t.Helper()
	parts, err := parsePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	d := &parts.head.Durability
	d.MaxSnapshotStall, d.MaxCaptureStall, d.DeltaBytes, d.BaseBytes = 0, 0, 0, 0
	head, err := json.Marshal(parts.head)
	if err != nil {
		t.Fatal(err)
	}
	_, sections, err := cutString(p[4:])
	if err != nil {
		t.Fatal(err)
	}
	out := binary.LittleEndian.AppendUint32(slices.Clone(p[:4]), uint32(len(head)))
	return append(append(out, head...), sections...)
}

// samplePayloadsEnv names the file a child run of
// TestSamplePayloadsReproducible writes its sample payloads to.
const samplePayloadsEnv = "STREAM_TEST_SAMPLE_PAYLOADS"

// TestSamplePayloadsReproducible builds the sample payloads — the bytes
// -update-corpus cuts every v9- seed from — in two fresh processes, as
// -update-corpus does, and requires the same bytes of both, so that a
// regenerated corpus differs from the checked-in one only where the format
// did. The builds run in child processes because nonces come from a
// process-wide counter, which a second build in one process would find
// raised.
func TestSamplePayloadsReproducible(t *testing.T) {
	names := []string{"valid-base", "valid-delta", "valid-central-base"}
	if path := os.Getenv(samplePayloadsEnv); path != "" {
		base, delta := samplePayloads(t, false)
		centralBase, _ := samplePayloads(t, true)
		var out []byte
		for i, p := range [][]byte{base, delta, centralBase} {
			out = fmt.Appendf(out, "%s %q\n", names[i], p)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var builds [2][]string
	for i := range builds {
		path := filepath.Join(t.TempDir(), "payloads")
		cmd := exec.Command(os.Args[0], "-test.run=^TestSamplePayloadsReproducible$", "-test.count=1")
		cmd.Env = append(os.Environ(), samplePayloadsEnv+"="+path)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child building the sample payloads: %v\n%s", err, out)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		builds[i] = strings.Split(string(raw), "\n")
	}
	if len(builds[0]) != len(builds[1]) {
		t.Fatalf("the builds hold %d and %d payloads", len(builds[0]), len(builds[1]))
	}
	for i, a := range builds[0] {
		b := builds[1][i]
		at := 0
		for at < min(len(a), len(b)) && a[at] == b[at] {
			at++
		}
		if a != b {
			t.Errorf("two fresh builds differ from byte %d of their line:\n%.200s\n%.200s", at, a[at:], b[at:])
		}
	}
}

// withFirstBlob returns payload p, a schema-9 one, with its first device's
// blob replaced by blob, the entry and section lengths framed anew.
func withFirstBlob(t testing.TB, p, blob []byte) []byte {
	t.Helper()
	head := 8 + int(binary.LittleEndian.Uint32(p[4:]))
	first := head + 4
	n := int(binary.LittleEndian.Uint32(p[first+12:]))
	secLen := int(binary.LittleEndian.Uint32(p[head:]))
	if secLen < entryHeaderLen+n {
		t.Fatal("payload has no device entry")
	}
	out := append([]byte(nil), p[:first+entryHeaderLen]...)
	binary.LittleEndian.PutUint32(out[head:], uint32(secLen-n+len(blob)))
	binary.LittleEndian.PutUint32(out[first+12:], uint32(len(blob)))
	out = append(out, blob...)
	return append(out, p[first+entryHeaderLen+n:]...)
}

// corruptions derives the named rejected seeds from a valid schema-9 base
// payload: the devices section's framing, keys, blobs and epochs, then the
// event log's framing and contents.
func corruptions(t testing.TB, base []byte) map[string][]byte {
	t.Helper()
	parts, err := parsePayload(base)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets of the devices section's first two entries, and of the event
	// log's first run.
	first := 8 + int(binary.LittleEndian.Uint32(base[4:])) + 4
	n := int(binary.LittleEndian.Uint32(base[first+12:]))
	second := first + entryHeaderLen + n
	logged := first + len(parts.sec[secDevices]) + 4 + len(parts.sec[secPending]) + 4
	if len(parts.sec[secEvents]) == 0 || n == 0 || base[first+entryHeaderLen] != 0 {
		t.Fatal("base payload logs no event, or its first device has denials")
	}
	mutate := func(fn func(p []byte)) []byte {
		p := bytes.Clone(base)
		fn(p)
		return p
	}
	// The first logged entry's first name: past the run header, the tag and
	// the ID, device and day varints.
	name := logged + runHeaderLen + 1
	for i := 0; i < 3; i++ {
		_, n := binary.Uvarint(base[name:])
		name += n
	}
	if base[name] != 0 {
		t.Fatal("base payload's first logged entry does not define its first name")
	}
	blob := base[first+entryHeaderLen : first+entryHeaderLen+n]
	// A lane of one requested range, epochs 0 to 2^30: its every field in
	// range, so only restore, which knows the scenario's span, can refuse it
	// before the range sizes a lane.
	wideRange := binary.AppendUvarint(nil, 0) // denials
	wideRange = binary.AppendUvarint(wideRange, uint64(len("nike.example")))
	wideRange = append(wideRange, "nike.example"...)
	wideRange = binary.AppendUvarint(wideRange, 0)     // slots
	wideRange = binary.AppendUvarint(wideRange, 1)     // ranges
	wideRange = binary.AppendVarint(wideRange, 0)      // first epoch
	wideRange = binary.AppendUvarint(wideRange, 1<<30) // last − first
	return map[string][]byte{
		"truncated-section": base[:len(base)-5],
		"swapped-keys": mutate(func(p []byte) {
			var tmp [8]byte
			copy(tmp[:], p[first:])
			copy(p[first:first+8], p[second:second+8])
			copy(p[second:], tmp[:])
		}),
		"duplicate-key":   mutate(func(p []byte) { copy(p[second:second+8], p[first:first+8]) }),
		"oversized-count": mutate(func(p []byte) { binary.LittleEndian.PutUint32(p[first+12:], 1<<31) }),
		// Well-formed throughout: only restore, which knows the scenario's
		// epoch span, can refuse them.
		"wild-slot-epoch": withFirstBlob(t, base, appendLane(binary.AppendUvarint(nil, 0), "nike.example",
			1<<30, []float64{1}, []byte{0})),
		"wild-requested-epoch": withFirstBlob(t, base, appendLane(binary.AppendUvarint(nil, 0), "nike.example",
			1<<30, []float64{-1}, []byte{1})),
		"mark-range-past-lane": withFirstBlob(t, base, wideRange),
		// The denial counter, 0, written in two bytes.
		"overlong-varint": withFirstBlob(t, base, append([]byte{0x80, 0x00}, blob[1:]...)),
		"schema-3-json":   []byte(`{"schema":3,"config":{"epochDays":7},"devices":[],"records":[],"results":[]}`),
		// The first run's length reaches past the log.
		"log-overrun": mutate(func(p []byte) { binary.LittleEndian.PutUint32(p[logged:], 1<<31) }),
		// The first entry refers to a name no entry defined: the run's
		// framing holds, so only its decode can refuse it.
		"log-undefined-name": mutate(func(p []byte) { p[name] = 0x7f }),
		// Three bytes follow the last run inside the log section, the
		// payload's last.
		"log-trailing": append(mutate(func(p []byte) {
			binary.LittleEndian.PutUint32(p[logged-4:], uint32(len(parts.sec[secEvents])+3))
		}), 0, 0, 0),
	}
}

// wildCentralEpoch moves an IPA-like base's first central ledger row to an
// epoch no query window reaches. The head stays canonical JSON and the frame
// would stay CRC-valid: only restore, which knows the span, can refuse it.
func wildCentralEpoch(t testing.TB, centralBase []byte) []byte {
	t.Helper()
	c, err := openChain([][]byte{centralBase})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.head.Central) == 0 {
		t.Fatal("IPA-like base payload carries no central row")
	}
	c.head.Central[0].Epoch = 1 << 30
	p, err := c.encode()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzSnapPayload from a fresh run")

const snapCorpusDir = "testdata/fuzz/FuzzSnapPayload"

// TestSnapCorpus keeps the checked-in fuzz seeds honest: the valid ones must
// still be accepted by this decoder and restore into a fresh service — a
// schema-9 one also folding to itself — and an IPA-like one's central rows
// into a fresh central ledger (a head field added without regenerating them
// would quietly turn them into rejects), the broken ones still refused for
// the reason their name gives — and a refusal of the devices section or the
// central rows comes before any ledger lane, requested mark or central row
// exists. The v8- seeds are schema 8, whose log is runs; the v9- ones are
// schema 9, whose pending conversions are runs and whose device blobs are
// lanes; every other seed is a retired schema's, and refused as one.
func TestSnapCorpus(t *testing.T) {
	if *updateCorpus {
		base, delta := samplePayloads(t, false)
		all := corruptions(t, base)
		seeds := map[string][]byte{"valid-base": base, "valid-delta": delta}
		for _, name := range []string{"truncated-section", "swapped-keys", "duplicate-key", "oversized-count",
			"wild-slot-epoch", "wild-requested-epoch", "log-overrun", "log-undefined-name", "log-trailing",
			"overlong-varint", "mark-range-past-lane"} {
			seeds[name] = all[name]
		}
		seeds["valid-central-base"], _ = samplePayloads(t, true)
		seeds["wild-central-epoch"] = wildCentralEpoch(t, seeds["valid-central-base"])
		for name, p := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", p)
			if err := os.WriteFile(filepath.Join(snapCorpusDir, "v9-"+name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows := map[string]string{
		"schema-3-json":           "unsupported snapshot schema 3",
		"v8-valid-base":           "",
		"v8-valid-delta":          "",
		"v8-valid-central-base":   "",
		"v8-log-overrun":          "event log: run of 2147483648 bytes exceeds its",
		"v8-log-undefined-name":   "event log: events: malformed run: name index 126 of 0 defined",
		"v8-log-trailing":         "event log: 3 bytes after the last run",
		"v9-valid-base":           "",
		"v9-valid-delta":          "",
		"v9-valid-central-base":   "",
		"v9-log-overrun":          "event log: run of 2147483648 bytes exceeds its",
		"v9-log-undefined-name":   "event log: events: malformed run: name index 126 of 0 defined",
		"v9-log-trailing":         "event log: 3 bytes after the last run",
		"v9-overlong-varint":      "device blob: bad denials varint",
		"v9-mark-range-past-lane": "requested epoch 1073741824 outside [-5, 4]",
		"v9-truncated-section":    "exceeds its",
		"v9-swapped-keys":         "not strictly ascending",
		"v9-duplicate-key":        "not strictly ascending",
		"v9-oversized-count":      "claims 2147483648 bytes",
		"v9-wild-slot-epoch":      "slot epoch 1073741824 outside [-5, 4]",
		"v9-wild-requested-epoch": "requested epoch 1073741824 outside [-5, 4]",
		"v9-wild-central-epoch":   "central epoch 1073741824 outside [-5, 4]",
	}
	for name, wantErr := range rows {
		p := readSeed(t, name)
		var out []byte
		c, err := openChain([][]byte{p})
		if err == nil && c.schema == snapSchemaVersion {
			out, err = c.encode()
		}
		if err == nil {
			svc := sampleService(t, nil, "", strings.Contains(name, "central"))
			if err = svc.restoreDevices(c, make(siteIntern)); err != nil {
				svc.fleet.Range(func(d *core.Device) bool {
					marks := 0
					d.RangeRequested(func(events.Epoch, []events.Site, []float64) { marks++ })
					if len(d.Ledger()) != 0 || marks != 0 {
						t.Errorf("%s: device %d had %d ledger rows and %d requested epochs restored before the refusal",
							name, d.ID(), len(d.Ledger()), marks)
					}
					return true
				})
			} else if err = svc.restoreCentral(c.head.Central); err != nil {
				if svc.central != nil && len(svc.central.Rows()) != 0 {
					t.Errorf("%s: %d central rows restored before the refusal", name, len(svc.central.Rows()))
				}
			} else if err = svc.restoreEvents(c); err == nil {
				err = svc.plan.restore(c)
			}
		}
		switch {
		case wantErr == "" && (err != nil || c.schema == snapSchemaVersion && !bytes.Equal(out, p)):
			t.Errorf("%s: valid seed no longer restores (or folds to itself): %v", name, err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%s: err = %v, want %q", name, err, wantErr)
		}
	}
	// The seeds without a row are payloads of the retired schemas 6 and 7
	// (the v7- ones), kept as fuzz inputs: the parse refuses each by its
	// schema.
	seeds, err := os.ReadDir(snapCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		name := seed.Name()
		if _, ok := rows[name]; ok {
			continue
		}
		want := "unsupported snapshot schema 6"
		if strings.HasPrefix(name, "v7-") {
			want = "unsupported snapshot schema 7"
		}
		if _, err := parsePayload(readSeed(t, name)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
}

// readSeed reads one checked-in FuzzSnapPayload seed.
func readSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(snapCorpusDir, name))
	if err != nil {
		t.Fatal(err)
	}
	var p []byte
	if _, err := fmt.Sscanf(string(raw), "go test fuzz v1\n[]byte(%q)", &p); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// FuzzSnapPayload holds the payload decoder to its contract: arbitrary bytes
// never panic — alone, folded over a valid base, or handed section by
// section to restore's walks, device rows and requested ranges through
// restore's epoch bound into a real ledger, central rows through it into an
// IPA-like service's, logged events into a real store, pending runs into a
// real planner — and whatever the
// fold accepts it re-encodes byte for byte, but for the logged events below
// the head's eviction floor, which it drops, so the decoder cannot quietly
// normalize a payload this code did not write.
func FuzzSnapPayload(f *testing.F) {
	base, delta := samplePayloads(f, false)
	centralBase, _ := samplePayloads(f, true)
	f.Add(base)
	f.Add(delta)
	f.Add(centralBase)
	f.Add(wildCentralEpoch(f, centralBase))
	for _, p := range corruptions(f, base) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		_, _ = foldChain([][]byte{base, p})
		c, err := openChain([][]byte{p})
		if err != nil {
			return
		}
		// Ledger lanes are dense in the epoch: a fuzzed slot, mark or central
		// epoch that got past restore's bound would size an array and stall the
		// fuzzer.
		_ = sampleService(t, nil, "", false).restoreDevices(c, make(siteIntern))
		_ = sampleService(t, nil, "", true).restoreCentral(c.head.Central)
		_ = sampleService(t, nil, "", false).restoreEvents(c)
		_ = sampleService(t, nil, "", false).plan.restore(c)
		out, err := c.encode()
		if err != nil {
			return // a section failed its walk, or a schema-8 payload
		}
		if bytes.Equal(out, p) {
			return
		}
		in, _ := parsePayload(p)
		folded, err := parsePayload(out)
		if err != nil || !bytes.Equal(folded.sec[secDevices], in.sec[secDevices]) ||
			!bytes.Equal(folded.sec[secPending], in.sec[secPending]) ||
			len(folded.sec[secEvents]) >= len(in.sec[secEvents]) {
			t.Fatalf("accepted payload re-encodes to %d different bytes (from %d) beyond dropping logged events", len(out), len(p))
		}
		if again, err := foldChain([][]byte{out}); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("a fold's output does not fold to itself: %v", err)
		}
	})
}

// TestResumeRefusesWildCentralEpoch pins restore's epoch bound on the
// central ledger: a CRC-valid base whose head carries a central row at an
// epoch no query window reaches must fail the resume, not size the ledger's
// dense lane out to it.
func TestResumeRefusesWildCentralEpoch(t *testing.T) {
	dir := t.TempDir()
	if _, err := checkpoint.NewStore(dir, nil).WriteBase(1, readSeed(t, "v9-wild-central-epoch")); err != nil {
		t.Fatal(err)
	}
	_, err := ResumeFrom(sampleConfig(nil, dir, true), dir)
	if err == nil || !strings.Contains(err.Error(), "central epoch 1073741824 outside [-5, 4]") {
		t.Fatalf("resume over a wild central epoch: err = %v", err)
	}
}

// TestResumeRefusesRetiredSchemas pins that a payload of a retired schema
// in an otherwise intact directory (frame, CRC and name all valid) fails the
// resume with the schema error instead of being skipped like corruption,
// which would silently restart the run from its source. The refusal comes
// from the chain's parse, before restore could create a device row or a
// requested mark. A retired directory resumes once under the last commit
// that reads its schema (DESIGN.md §8), whose re-anchor rewrites it.
//
// Schemas 3 and 4 are written here: the pre-binary JSON document and the
// binary layout with a requested section. The others are real directories,
// each written by the commit in its name: schema 5 (per-slot capacities) by
// a run (fixed ε 1, ε^G 100, a snapshot every 2 days, group commits of 2)
// crashed at its 20th ingested event, one base and three deltas; schema 6
// (key-sorted records) by an IPA-like run and by cmFixtureConfig's, crashed
// after compactions; schema 7 (a log of row-layout events, above it a
// version-1 WAL segment) by cmFixtureConfig's.
func TestResumeRefusesRetiredSchemas(t *testing.T) {
	writeBase := func(payload []byte) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			if _, err := checkpoint.NewStore(dir, nil).WriteBase(1, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	copyDir := func(fixture string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name, schema string
		fill         func(t *testing.T, dir string)
	}{
		{"schema 3", "schema 3", writeBase([]byte(`{"schema":3,"config":{"epochDays":7},"devices":[],"records":[],"results":[]}`))},
		{"schema 4", "schema 4", writeBase(binary.LittleEndian.AppendUint32(nil, 4))},
		{"schema 5", "schema 5", copyDir("testdata/ckpt-53ceb69")},
		{"ckpt-2222b11-ipa", "schema 6", copyDir("testdata/ckpt-2222b11-ipa")},
		{"ckpt-62d74db", "schema 6", copyDir("testdata/ckpt-62d74db")},
		{"ckpt-f2a8120", "schema 7", copyDir("testdata/ckpt-f2a8120")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.fill(t, dir)
			_, err := ResumeFrom(Config{Source: &fakeSource{meta: testMeta()}, FixedEpsilon: 1, EpsilonG: 100,
				CheckpointDir: dir}, dir)
			if err == nil || !strings.Contains(err.Error(), "unsupported snapshot "+tc.schema) {
				t.Fatalf("resume over a %s directory: err = %v", tc.schema, err)
			}
			chain, _, err := checkpoint.NewStore(dir, nil).LoadChain()
			if err != nil || chain == nil {
				t.Fatalf("%s directory does not load as an intact chain: %v", tc.schema, err)
			}
			if _, err := openChain(chain.Payloads); err == nil {
				t.Fatalf("%s chain parses: its refusal came after restore began", tc.schema)
			}
		})
	}
}

// TestParseReadsTwoSchemas fences the rule that a build restores the schema
// it writes and the one before it: every other schema number, from 0 to one
// past the current, is refused by the parse. A schema bump fails it until
// the reader of the schema two back is retired.
func TestParseReadsTwoSchemas(t *testing.T) {
	for schema := uint32(0); schema <= snapSchemaVersion+1; schema++ {
		_, err := parsePayload(binary.LittleEndian.AppendUint32(nil, schema))
		want := fmt.Sprintf("unsupported snapshot schema %d", schema)
		refused := err != nil && strings.Contains(err.Error(), want)
		if read := schema == snapSchemaVersion-1 || schema == snapSchemaVersion; read == refused {
			t.Errorf("schema %d: err = %v; read %t", schema, err, read)
		}
	}
}
