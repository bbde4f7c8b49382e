package events

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func imp(id EventID, d DeviceID, day int, adv string) Event {
	return Event{ID: id, Kind: KindImpression, Device: d, Day: day, Advertiser: Intern(adv), Publisher: Intern("pub.example")}
}

func conv(id EventID, d DeviceID, day int, adv string, value float64) Event {
	return Event{ID: id, Kind: KindConversion, Device: d, Day: day, Advertiser: Intern(adv), Value: value}
}

func TestDatabaseEmpty(t *testing.T) {
	db := NewDatabase()
	if db.NumDevices() != 0 || db.NumRecords() != 0 || db.NumEvents() != 0 {
		t.Fatal("fresh database not empty")
	}
	if db.EpochEvents(1, 0) != nil {
		t.Fatal("missing device-epoch should be nil")
	}
	if db.DeviceEpochs(1) != nil {
		t.Fatal("missing device epochs should be nil")
	}
}

func TestRecordAndLookup(t *testing.T) {
	db := NewDatabase()
	db.Record(0, imp(1, 7, 0, "nike.com"))
	db.Record(0, imp(2, 7, 1, "nike.com"))
	db.Record(1, conv(3, 7, 8, "nike.com", 70))
	if db.NumDevices() != 1 || db.NumRecords() != 2 || db.NumEvents() != 3 {
		t.Fatalf("counts: devices=%d records=%d events=%d",
			db.NumDevices(), db.NumRecords(), db.NumEvents())
	}
	e0 := db.EpochEvents(7, 0)
	if len(e0) != 2 || e0[0].ID != 1 || e0[1].ID != 2 {
		t.Fatalf("epoch 0 events = %v", e0)
	}
	if got := db.EpochEvents(7, 2); got != nil {
		t.Fatalf("empty epoch returned %v", got)
	}
}

func TestRecordKeepsOrder(t *testing.T) {
	db := NewDatabase()
	// Insert out of order; DB must keep (Day, ID) order.
	db.Record(0, imp(5, 1, 9, "a"))
	db.Record(0, imp(2, 1, 3, "a"))
	db.Record(0, imp(9, 1, 3, "a"))
	evs := db.EpochEvents(1, 0)
	if len(evs) != 3 || evs[0].ID != 2 || evs[1].ID != 9 || evs[2].ID != 5 {
		t.Fatalf("events not sorted: %v", evs)
	}
}

func TestWindowEvents(t *testing.T) {
	db := NewDatabase()
	db.Record(1, imp(1, 4, 8, "a"))
	db.Record(3, imp(2, 4, 22, "a"))
	w := db.WindowViewsInto(nil, 4, 0, 3)
	if len(w) != 4 {
		t.Fatalf("window length %d", len(w))
	}
	if w[0].Events() != nil || w[2].Events() != nil {
		t.Fatal("empty epochs should be nil")
	}
	if w[1].Len() != 1 || w[1].Events()[0].ID != 1 {
		t.Fatalf("epoch 1 = %v", w[1].Events())
	}
	if w[3].Len() != 1 || w[3].Events()[0].ID != 2 {
		t.Fatalf("epoch 3 = %v", w[3].Events())
	}
	// Unknown device: all empty but correct length.
	w = db.WindowViewsInto(w, 99, 0, 2)
	if len(w) != 3 || w[0].Len() != 0 || w[1].Len() != 0 || w[2].Len() != 0 {
		t.Fatalf("unknown device window = %v", w)
	}
	if len(db.WindowViewsInto(w, 4, 3, 1)) != 0 {
		t.Fatal("inverted window should be empty")
	}
}

func TestDevicesSorted(t *testing.T) {
	db := NewDatabase()
	for _, d := range []DeviceID{5, 1, 9, 3} {
		db.Record(0, imp(EventID(d), d, 0, "a"))
	}
	ds := db.Devices()
	for i := 1; i < len(ds); i++ {
		if ds[i-1] >= ds[i] {
			t.Fatalf("devices not sorted: %v", ds)
		}
	}
}

func TestDeviceEpochsSorted(t *testing.T) {
	db := NewDatabase()
	for _, e := range []Epoch{4, 0, 2} {
		db.Record(e, imp(EventID(e+1), 1, int(e)*7, "a"))
	}
	es := db.DeviceEpochs(1)
	if len(es) != 3 || es[0] != 0 || es[1] != 2 || es[2] != 4 {
		t.Fatalf("epochs = %v", es)
	}
}

func TestNextEventIDUnique(t *testing.T) {
	db := NewDatabase()
	seen := map[EventID]bool{}
	for i := 0; i < 1000; i++ {
		id := db.NextEventID()
		if seen[id] {
			t.Fatalf("duplicate event ID %d", id)
		}
		seen[id] = true
	}
}

func TestRecordOrderInvariantQuick(t *testing.T) {
	f := func(days []uint8) bool {
		db := NewDatabase()
		for i, d := range days {
			db.Record(0, imp(EventID(i+1), 1, int(d), "a"))
		}
		evs := db.EpochEvents(1, 0)
		for i := 1; i < len(evs); i++ {
			if evs[i].Before(evs[i-1]) {
				return false
			}
		}
		return len(evs) == len(days)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeIndexMatchesMapReads holds NewFrozen's bulk load to Record's
// over the same events, empty epochs between records included.
func TestFreezeIndexMatchesMapReads(t *testing.T) {
	evs := []Event{imp(1, 1, -14, "a"), imp(2, 1, 3, "a"), imp(3, 1, 25, "a"), conv(4, 2, 9, "a", 5)}
	db := NewDatabase()
	for _, ev := range evs {
		db.Record(EpochOfDay(ev.Day, 7), ev)
	}
	frozen := NewFrozen(7, evs)

	type probe struct {
		d DeviceID
		e Epoch
	}
	probes := []probe{{1, -3}, {1, -2}, {1, -1}, {1, 0}, {1, 2}, {1, 3}, {1, 4}, {2, 1}, {2, 0}, {3, 0}}
	for _, p := range probes {
		if got, want := len(frozen.EpochEvents(p.d, p.e)), len(db.EpochEvents(p.d, p.e)); got != want {
			t.Fatalf("device %d epoch %d: %d events frozen, %d recorded", p.d, p.e, got, want)
		}
	}
	w := frozen.WindowViewsInto(nil, 1, -3, 4)
	if len(w) != 8 || w[1].Len() != 1 || w[3].Len() != 1 || w[6].Len() != 1 || w[0].Len() != 0 {
		t.Fatalf("frozen WindowViewsInto = %v", w)
	}
}

func TestEvictBefore(t *testing.T) {
	db := NewDatabase()
	// Device 1 spans epochs 0..3; device 2 only epoch 0.
	for e := 0; e < 4; e++ {
		db.Record(Epoch(e), imp(EventID(e+1), 1, e*7, "a"))
	}
	db.Record(0, imp(10, 2, 0, "a"))

	if removed := db.EvictBefore(0); removed != 0 {
		t.Fatalf("EvictBefore(0) removed %d records, want 0", removed)
	}
	if removed := db.EvictBefore(2); removed != 3 {
		t.Fatalf("EvictBefore(2) removed %d records, want 3", removed)
	}
	// Evicted epochs read as empty; surviving epochs are intact.
	if evs := db.EpochEvents(1, 1); evs != nil {
		t.Fatalf("evicted epoch still has %d events", len(evs))
	}
	if evs := db.EpochEvents(1, 2); len(evs) != 1 {
		t.Fatalf("surviving epoch has %d events, want 1", len(evs))
	}
	// Device 2 lost its only record and is gone entirely.
	if n := db.NumDevices(); n != 1 {
		t.Fatalf("devices after eviction = %d, want 1", n)
	}
	if n := db.NumRecords(); n != 2 {
		t.Fatalf("records after eviction = %d, want 2", n)
	}
	// Ingestion continues at and above the horizon.
	db.Record(5, imp(11, 1, 35, "a"))
	if evs := db.EpochEvents(1, 5); len(evs) != 1 {
		t.Fatalf("post-eviction record lost: %d events", len(evs))
	}
}

func TestFrozenConcurrentReaders(t *testing.T) {
	var evs []Event
	for i := 0; i < 200; i++ {
		evs = append(evs, imp(EventID(i+1), DeviceID(i%7), i, "a"))
	}
	db := NewFrozen(7, evs)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := DeviceID(0); d < 7; d++ {
				for e := Epoch(-1); e < 6; e++ {
					db.EpochEvents(d, e)
				}
				db.WindowViewsInto(nil, d, 0, 4)
			}
		}()
	}
	wg.Wait()
}

// TestReadSlicesCannotReachNeighbours appends to every slice the store hands
// out — EpochEvents and EventView.Events — and checks that no record's reads
// moved: each slice is capped at its record's length, so the append
// reallocates rather than writing into the next region of the arena.
func TestReadSlicesCannotReachNeighbours(t *testing.T) {
	db := NewDatabase()
	var id EventID
	for d := DeviceID(0); d < 64; d++ {
		for k := 0; k <= int(d%3); k++ {
			id++
			db.Record(0, imp(id, d, k, "nike.com"))
		}
	}
	want := make(map[DeviceID][]Event)
	for d := DeviceID(0); d < 64; d++ {
		want[d] = slices.Clone(db.EpochEvents(d, 0))
	}
	sentinel := imp(1<<40, 999, 0, "evil.example")
	for d := DeviceID(0); d < 64; d++ {
		evs := db.EpochEvents(d, 0)
		if cap(evs) != len(evs) {
			t.Fatalf("EpochEvents(%d, 0) has cap %d beyond its %d events", d, cap(evs), len(evs))
		}
		_ = append(evs, sentinel)
		_ = append(db.WindowViewsInto(nil, d, 0, 0)[0].Events(), sentinel)
	}
	for d := DeviceID(0); d < 64; d++ {
		if got := db.EpochEvents(d, 0); !slices.Equal(got, want[d]) {
			t.Fatalf("device %d after appends = %v, want %v", d, got, want[d])
		}
	}
}

// TestSparseEpochsCostOneSmallChunk records one event in each of 1 000
// epochs: every segment must hold a single first-size chunk, not a
// full-size one.
func TestSparseEpochsCostOneSmallChunk(t *testing.T) {
	db := NewDatabase()
	for e := 0; e < 1000; e++ {
		db.Record(Epoch(e), imp(EventID(e+1), 3, 7*e, "nike.com"))
	}
	for _, seg := range db.segs {
		e := seg.epoch
		slots := 0
		for _, c := range seg.evs {
			slots += len(c)
		}
		if slots > firstChunk || len(seg.keys) != len(seg.evs) {
			t.Fatalf("epoch %d holds %d slots in %d chunks, want ≤ %d", e, slots, len(seg.evs), firstChunk)
		}
	}
}

// TestRecordAllocatesPerChunk records 10 000 single-event devices into one
// epoch. A record is a region of the segment's arena, so the allocations
// are the chunks and the map's growth — far fewer than one per record.
func TestRecordAllocatesPerChunk(t *testing.T) {
	const n = 10000
	allocs := testing.AllocsPerRun(1, func() {
		db := NewDatabase()
		for d := 0; d < n; d++ {
			db.Record(0, imp(EventID(d+1), DeviceID(d), 0, "nike.com"))
		}
	})
	if allocs > n/16 {
		t.Fatalf("recording %d single-event devices allocated %.0f times, want ≤ %d", n, allocs, n/16)
	}
}

// BenchmarkRecordStream times Record over a day-ordered synthetic stream with
// retention, the streaming service's store path: 100 000 devices, 60 days of
// 7-day epochs at 0.1 events per device per day (records of one or two
// events, as on the synthetic trace), and before each new day an
// EvictBefore that keeps a 30-day window. It reports ns/event.
func BenchmarkRecordStream(b *testing.B) {
	const epochDays, windowDays, days, devices, perDay = 7, 30, 60, 100000, 10000
	rng := rand.New(rand.NewSource(1))
	proto := imp(0, 0, 0, "nike.com")
	evs := make([]Event, 0, days*perDay)
	for day := range days {
		for range perDay {
			ev := proto
			ev.ID, ev.Device, ev.Day = EventID(len(evs)+1), DeviceID(rng.Intn(devices)), day
			evs = append(evs, ev)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		db := NewDatabase()
		day := 0
		for _, ev := range evs {
			if ev.Day != day {
				day = ev.Day
				db.EvictBefore(EpochOfDay(day-windowDays+1, epochDays))
			}
			db.Record(EpochOfDay(ev.Day, epochDays), ev)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}
