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
// 2 devices × 2 epochs, each entry absent or one of two values, at every
// eviction-floor position, and holds the k-way merge to the map overlay.
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
	// The reference: overlay the generations into a map, newest last, then
	// drop what the floor has passed.
	reference := func(out []byte, chain []int, floor events.Epoch) []byte {
		m := map[int]int{}
		for _, g := range chain {
			for k, v := range gens[g] {
				if v != 0 {
					m[k] = v
				}
			}
		}
		for k, key := range keys {
			if v := m[k]; v != 0 && key.Epoch >= floor {
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
			for floor := events.Epoch(0); floor <= 2; floor++ {
				got = got[:0]
				err := mergeSections(in, floor, func(key DevEpoch, blob, raw []byte) error {
					if len(raw) != entryHeaderLen+len(blob) || &raw[len(raw)-1] != &blob[len(blob)-1] {
						return fmt.Errorf("raw bytes of %v do not end in its blob", key)
					}
					got = append(append(got, byte(key.Device), byte(key.Epoch)), blob...)
					return nil
				})
				// A generation never carries an entry below its own floor;
				// the merge refuses the chains whose newest one does.
				refused := false
				for k, v := range gens[chain[len(chain)-1]] {
					refused = refused || (v != 0 && keys[k].Epoch < floor)
				}
				if refused {
					if err == nil {
						t.Fatalf("chain %v floor %d: newest generation below its floor was accepted", chain, floor)
					}
					continue
				}
				if want = reference(want[:0], chain, floor); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("chain %v floor %d: merge gave %x (%v), overlay %x", chain, floor, got, err, want)
				}
				folds++
			}
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
			if got := db.EpochEvents(s.dev, s.epoch); !slices.Equal(got, model[k]) {
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
				if g, w := got.EpochEvents(s.dev, s.epoch), want.EpochEvents(s.dev, s.epoch); !slices.Equal(g, w) {
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
	p, err := fresh.fullSnapshot()
	return p, c.head, err
}

// TestFoldMatchesSnapshotAtEveryTick is the service-level property: at every
// cadence tick of a run with eviction, late drops and base compactions, the
// chain on disk — and compaction's fold of it — restored into a fresh
// service gives the full snapshot the live service took at the previous
// tick's capture.
func TestFoldMatchesSnapshotAtEveryTick(t *testing.T) {
	meta, evs := hostileTrace(t, 11)
	scenario := Config{Source: &fakeSource{meta: meta}, EpsilonG: 2, Seed: 5, LatePolicy: LateDrop}
	var svc *Service
	var want []byte // full snapshot at the previous tick's capture
	compared := 0
	cfg := scenario
	cfg.Source = &fakeSource{meta: meta, evs: evs}
	cfg.CheckpointDir, cfg.SnapshotEveryDays, cfg.BaseEveryDeltas = t.TempDir(), 5, 3
	cfg.FaultHook = func(p FaultPoint) error {
		if p != PointDeltaCaptured {
			return nil
		}
		// The previous tick's generation has been harvested, so the
		// chain on disk ends at it (or at the base it compacted into).
		if want != nil {
			chain, _, err := svc.store.LoadChain(0)
			if err != nil || chain == nil {
				return fmt.Errorf("loading chain: %v", err)
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
		want, err = svc.fullSnapshot()
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
	if compared < 10 || run.EvictedRecords == 0 || run.EventsDropped == 0 || run.Durability.BaseCompactions < 3 {
		t.Fatalf("run exercises too little: %d ticks compared, %d evicted, %d dropped, %d compactions",
			compared, run.EvictedRecords, run.EventsDropped, run.Durability.BaseCompactions)
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
		return s.ledgerVers != nil || s.touched != nil || s.plan.dirty != nil || s.log != nil || s.spareLog != nil
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
// returns one full base payload and one delta payload it committed.
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
	for i := 1; i <= 8; i++ {
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
	return base, delta
}

// corruptions derives the named rejected seeds from a valid base payload:
// the devices section's framing, keys and epochs, then the event log's
// framing and contents.
func corruptions(t testing.TB, base []byte) map[string][]byte {
	t.Helper()
	parts, err := parsePayload(base)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets of the devices section's length prefix and first two entries,
	// and of the event log's first entry.
	off := len(base) - len(parts.sec[secEvents]) - 4 - len(parts.sec[secDevices]) - 4
	first := off + 4
	n := int(binary.LittleEndian.Uint32(base[first+12:]))
	second := first + entryHeaderLen + n
	logged := first + len(parts.sec[secDevices]) + 4
	if len(parts.sec[secEvents]) == 0 {
		t.Fatal("base payload logs no event")
	}
	mutate := func(fn func(p []byte)) []byte {
		p := bytes.Clone(base)
		fn(p)
		return p
	}
	// Offsets of the epoch of the first ledger slot any device carries (past
	// the entry header, the denial counter, the slot count and the querier)
	// and of the first requested mark's epoch (past the device's last slot).
	slotEpoch, markEpoch := -1, -1
	for at := first; at < first+len(parts.sec[secDevices]); {
		blob := at + entryHeaderLen
		end := blob + int(binary.LittleEndian.Uint32(base[at+12:]))
		slots := int(binary.LittleEndian.Uint32(base[blob+8:]))
		if slots > 0 && slotEpoch < 0 {
			slotEpoch = blob + 16 + int(binary.LittleEndian.Uint32(base[blob+12:]))
		}
		tail := blob + 12
		for ; slots > 0; slots-- {
			tail += 4 + int(binary.LittleEndian.Uint32(base[tail:])) + 12
		}
		if tail < end && markEpoch < 0 {
			markEpoch = tail
		}
		at = end
	}
	if slotEpoch < 0 || markEpoch < 0 {
		t.Fatal("base payload carries no ledger slot or no requested mark")
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
		// epoch span, can refuse it.
		"wild-slot-epoch":      mutate(func(p []byte) { binary.LittleEndian.PutUint32(p[slotEpoch:], 1<<30) }),
		"wild-requested-epoch": mutate(func(p []byte) { binary.LittleEndian.PutUint32(p[markEpoch:], 1<<30) }),
		"schema-3-json":        []byte(`{"schema":3,"config":{"epochDays":7},"devices":[],"records":[],"results":[]}`),
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
// schema-8 one also folding to itself — and an IPA-like one's central rows
// into a fresh central ledger (a head field added without regenerating them
// would quietly turn them into rejects), the broken ones still refused for
// the reason their name gives — and a refusal of the devices section or the
// central rows comes before any ledger lane, requested mark or central row
// exists. The unprefixed seeds are schema 6, written before the event log
// replaced the records section; the v7- ones are schema 7, whose log held
// one row-layout encoding per event; the v8- ones are schema 8, whose log
// is runs.
func TestSnapCorpus(t *testing.T) {
	if *updateCorpus {
		base, delta := samplePayloads(t, false)
		all := corruptions(t, base)
		seeds := map[string][]byte{"valid-base": base, "valid-delta": delta}
		for _, name := range []string{"log-overrun", "log-undefined-name", "log-trailing"} {
			seeds[name] = all[name]
		}
		seeds["valid-central-base"], _ = samplePayloads(t, true)
		for name, p := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", p)
			if err := os.WriteFile(filepath.Join(snapCorpusDir, "v8-"+name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, wantErr := range map[string]string{
		"valid-base":            "",
		"valid-delta":           "",
		"valid-central-base":    "",
		"truncated-section":     "exceeds its",
		"swapped-keys":          "not strictly ascending",
		"duplicate-key":         "not strictly ascending",
		"oversized-count":       "claims 2147483648 bytes",
		"record-below-floor":    "below its own generation's floor",
		"wild-slot-epoch":       "slot epoch 1073741824 outside [-5, 4]",
		"wild-requested-epoch":  "requested epoch 1073741824 outside [-5, 4]",
		"wild-central-epoch":    "central epoch 1073741824 outside [-5, 4]",
		"schema-3-json":         "unsupported snapshot schema 3",
		"v7-valid-base":         "",
		"v7-valid-delta":        "",
		"v7-valid-central-base": "",
		"v7-log-overrun":        "event log: stream: 2147483648-byte field exceeds its",
		"v7-log-undecodable":    "logged event: events: string of 1048576 bytes exceeds buffer",
		"v7-log-trailing":       "3 trailing bytes after snapshot sections",
		"v8-valid-base":         "",
		"v8-valid-delta":        "",
		"v8-valid-central-base": "",
		"v8-log-overrun":        "event log: run of 2147483648 bytes exceeds its",
		"v8-log-undefined-name": "event log: events: malformed run: name index 126 of 0 defined",
		"v8-log-trailing":       "event log: 3 bytes after the last run",
	} {
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
			} else {
				err = svc.restoreEvents(c)
			}
		}
		switch {
		case wantErr == "" && (err != nil || c.schema == snapSchemaVersion && !bytes.Equal(out, p)):
			t.Errorf("%s: valid seed no longer restores (or folds to itself): %v", name, err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%s: err = %v, want %q", name, err, wantErr)
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
// section to restore's walks, device rows and requested marks through
// restore's epoch bound into a real ledger, central rows through it into an
// IPA-like service's, logged events into a real store — and whatever the
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
		out, err := c.encode()
		if err != nil {
			return // a section failed its walk, or a schema-6 payload
		}
		if bytes.Equal(out, p) {
			return
		}
		in, _ := parsePayload(p)
		folded, err := parsePayload(out)
		if err != nil || !bytes.Equal(folded.sec[secDevices], in.sec[secDevices]) ||
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
	if _, err := checkpoint.NewStore(dir, nil).WriteBase(1, readSeed(t, "wild-central-epoch")); err != nil {
		t.Fatal(err)
	}
	_, err := ResumeFrom(sampleConfig(nil, dir, true), dir)
	if err == nil || !strings.Contains(err.Error(), "central epoch 1073741824 outside [-5, 4]") {
		t.Fatalf("resume over a wild central epoch: err = %v", err)
	}
}

// TestResumeRefusesSchema3 pins that a payload of a retired schema — the
// pre-binary JSON document, the binary layout with a requested section, or
// the layout with per-slot capacities — in an otherwise intact directory
// (frame, CRC and name all valid) fails the resume with the schema error
// instead of being skipped like corruption, which would silently restart the
// run from its source. The refusal comes from the chain's parse, before
// restore could create a device row or a requested mark.
//
// The schema-5 directory, testdata/ckpt-53ceb69, is a real one: written by
// commit 53ceb69 with a run (fixed ε 1, ε^G 100, a snapshot every 2 days,
// group commits of 2) crashed at its 20th ingested event, one base and
// three deltas.
func TestResumeRefusesSchema3(t *testing.T) {
	writeBase := func(payload []byte) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			if _, err := checkpoint.NewStore(dir, nil).WriteBase(1, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, fill := range map[string]func(t *testing.T, dir string){
		"schema 3": writeBase([]byte(`{"schema":3,"config":{"epochDays":7},"devices":[],"records":[],"results":[]}`)),
		"schema 4": writeBase(binary.LittleEndian.AppendUint32(nil, 4)),
		"schema 5": func(t *testing.T, dir string) {
			if err := os.CopyFS(dir, os.DirFS("testdata/ckpt-53ceb69")); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fill(t, dir)
			_, err := ResumeFrom(Config{Source: &fakeSource{meta: testMeta()}, FixedEpsilon: 1, EpsilonG: 100,
				CheckpointDir: dir}, dir)
			if err == nil || !strings.Contains(err.Error(), "unsupported snapshot "+name) {
				t.Fatalf("resume over a %s directory: err = %v", name, err)
			}
			chain, _, err := checkpoint.NewStore(dir, nil).LoadChain(0)
			if err != nil || chain == nil {
				t.Fatalf("%s directory does not load as an intact chain: %v", name, err)
			}
			if _, err := openChain(chain.Payloads); err == nil {
				t.Fatalf("%s chain parses: its refusal came after restore began", name)
			}
		})
	}
}
