package events

import (
	"sync"
	"testing"
	"testing/quick"
)

func imp(id EventID, d DeviceID, day int, adv Site) Event {
	return Event{ID: id, Kind: KindImpression, Device: d, Day: day, Advertiser: adv, Publisher: "pub.example"}
}

func conv(id EventID, d DeviceID, day int, adv Site, value float64) Event {
	return Event{ID: id, Kind: KindConversion, Device: d, Day: day, Advertiser: adv, Value: value}
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
	w := db.WindowEvents(4, 0, 3)
	if len(w) != 4 {
		t.Fatalf("window length %d", len(w))
	}
	if w[0] != nil || w[2] != nil {
		t.Fatal("empty epochs should be nil")
	}
	if len(w[1]) != 1 || w[1][0].ID != 1 {
		t.Fatalf("epoch 1 = %v", w[1])
	}
	if len(w[3]) != 1 || w[3][0].ID != 2 {
		t.Fatalf("epoch 3 = %v", w[3])
	}
	// Unknown device: all nil but correct length.
	w = db.WindowEvents(99, 0, 2)
	if len(w) != 3 || w[0] != nil || w[1] != nil || w[2] != nil {
		t.Fatalf("unknown device window = %v", w)
	}
	if db.WindowEvents(4, 3, 1) != nil {
		t.Fatal("inverted window should be nil")
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

// TestFreezeIndexMatchesMapReads holds NewFrozen's span index to the
// mutable store's map reads over the same events.
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
	w := frozen.WindowEvents(1, -3, 4)
	if len(w) != 8 || len(w[1]) != 1 || len(w[3]) != 1 || len(w[6]) != 1 || w[0] != nil {
		t.Fatalf("frozen WindowEvents = %v", w)
	}
}

func TestFreezeRejectsRecord(t *testing.T) {
	db := NewFrozen(7, []Event{imp(1, 1, 1, "a")})
	defer func() {
		if recover() == nil {
			t.Fatal("Record on a frozen database did not panic")
		}
	}()
	db.Record(0, imp(2, 1, 2, "a"))
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

func TestEvictBeforePanicsWhenFrozen(t *testing.T) {
	db := NewFrozen(7, []Event{imp(1, 1, 0, "a")})
	defer func() {
		if recover() == nil {
			t.Fatal("EvictBefore on a frozen database did not panic")
		}
	}()
	db.EvictBefore(1)
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
				db.WindowEvents(d, 0, 4)
			}
		}()
	}
	wg.Wait()
}
