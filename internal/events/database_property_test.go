package events

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// refStore is the pre-columnar map-of-slices store (device → epoch → []Event
// with a dense per-device index compiled at freeze), kept verbatim as the
// executable specification the columnar layout is property-tested against.
type refStore struct {
	devices map[DeviceID]*refDeviceStore
}

type refDeviceStore struct {
	epochs  map[Epoch][]Event
	first   Epoch
	byEpoch [][]Event
}

func newRefStore() *refStore {
	return &refStore{devices: make(map[DeviceID]*refDeviceStore)}
}

func (db *refStore) record(epoch Epoch, ev Event) {
	ds := db.devices[ev.Device]
	if ds == nil {
		ds = &refDeviceStore{epochs: make(map[Epoch][]Event)}
		db.devices[ev.Device] = ds
	}
	evs := ds.epochs[epoch]
	evs = append(evs, ev)
	// The old linear bubble, preserved as the ordering specification.
	for i := len(evs) - 1; i > 0 && evs[i].Before(evs[i-1]); i-- {
		evs[i], evs[i-1] = evs[i-1], evs[i]
	}
	ds.epochs[epoch] = evs
}

func (db *refStore) evictBefore(first Epoch) int {
	removed := 0
	for d, ds := range db.devices {
		for e := range ds.epochs {
			if e < first {
				delete(ds.epochs, e)
				removed++
			}
		}
		if len(ds.epochs) == 0 {
			delete(db.devices, d)
		}
	}
	return removed
}

func (db *refStore) freeze() {
	for _, ds := range db.devices {
		if len(ds.epochs) == 0 {
			ds.byEpoch = [][]Event{}
			continue
		}
		first, last := Epoch(0), Epoch(0)
		started := false
		for e := range ds.epochs {
			if !started || e < first {
				first = e
			}
			if !started || e > last {
				last = e
			}
			started = true
		}
		ds.first = first
		ds.byEpoch = make([][]Event, int(last-first)+1)
		for e, evs := range ds.epochs {
			ds.byEpoch[e-first] = evs
		}
	}
}

func (db *refStore) epochEvents(d DeviceID, e Epoch) []Event {
	ds := db.devices[d]
	if ds == nil {
		return nil
	}
	if ds.byEpoch != nil {
		i := int(e - ds.first)
		if i < 0 || i >= len(ds.byEpoch) {
			return nil
		}
		return ds.byEpoch[i]
	}
	return ds.epochs[e]
}

func (db *refStore) numRecords() int {
	n := 0
	for _, ds := range db.devices {
		n += len(ds.epochs)
	}
	return n
}

func (db *refStore) numEvents() int {
	n := 0
	for _, ds := range db.devices {
		for _, evs := range ds.epochs {
			n += len(evs)
		}
	}
	return n
}

// randomEvent draws an event whose field values collide often, so ordering,
// interning, and selector corner cases all get exercised.
func randomEvent(rng *rand.Rand, id EventID) Event {
	sites := []Site{"nike.com", "adidas.com", "puma.com"}
	camps := []string{"", "p0", "p1", "p2", "p3"}
	ev := Event{
		ID:         id,
		Device:     DeviceID(rng.Intn(7)),
		Day:        rng.Intn(70) - 10,
		Advertiser: sites[rng.Intn(len(sites))],
		Publisher:  Site([]string{"pub.example", "news.example"}[rng.Intn(2)]),
		Campaign:   camps[rng.Intn(len(camps))],
	}
	if rng.Intn(4) == 0 {
		ev.Kind = KindConversion
		ev.Product = camps[rng.Intn(len(camps))]
		ev.Value = float64(rng.Intn(100))
	}
	return ev
}

// randomSelector draws one of the compilable selector forms, or (sometimes)
// a SelectorFunc that forces the generic fallback.
func randomSelector(rng *rand.Rand) Selector {
	sites := []Site{"nike.com", "adidas.com", "absent.example"}
	camps := []string{"", "p0", "p1", "p2", "p9"}
	var sel Selector
	switch rng.Intn(4) {
	case 0:
		n := rng.Intn(4)
		set := make(map[string]bool, n)
		for i := 0; i < n; i++ {
			set[camps[rng.Intn(len(camps))]] = rng.Intn(5) != 0 // some false entries
		}
		sel = CampaignSelector{Advertiser: sites[rng.Intn(len(sites))], Campaigns: set}
	case 1:
		sel = ProductSelector{Advertiser: sites[rng.Intn(len(sites))], Product: camps[rng.Intn(len(camps))]}
	case 2:
		adv := sites[rng.Intn(len(sites))]
		sel = SelectorFunc(func(ev Event) bool { return ev.IsImpression() && ev.Advertiser == adv })
	default:
		first := rng.Intn(60) - 15
		sel = WindowSelector{
			Inner:    ProductSelector{Advertiser: sites[rng.Intn(len(sites))], Product: camps[rng.Intn(len(camps))]},
			FirstDay: first,
			LastDay:  first + rng.Intn(40),
		}
	}
	return sel
}

// selectCompiled runs the compiled scan of one window epoch (matcher path
// when the selector compiles, Select otherwise) and returns the relevant
// subset — the columnar side of the property comparison.
func selectCompiled(db *Database, sel Selector, dev DeviceID, first, last Epoch) [][]Event {
	views := db.WindowViewsInto(nil, dev, first, last)
	out := make([][]Event, len(views))
	m, ok := db.Compile(sel)
	for i, v := range views {
		if !ok {
			out[i] = Select(v.Events(), sel)
			continue
		}
		var sub []Event
		for j := 0; j < v.Len(); j++ {
			if m.Match(v, j) {
				sub = append(sub, v.Events()[j])
			}
		}
		out[i] = sub
	}
	return out
}

// TestStorePropertyVsReference drives random interleavings of Record,
// EvictBefore, reads, and compiled-selector scans against the reference
// map-of-slices store, then lays the surviving events out with NewFrozen.
// Both stores must agree with the reference on every observable at every
// step.
func TestStorePropertyVsReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := NewDatabase()
			ref := newRefStore()
			var nextID EventID

			checkReads := func(db *Database, stage string) {
				t.Helper()
				if db.NumRecords() != ref.numRecords() || db.NumEvents() != ref.numEvents() ||
					db.NumDevices() != len(ref.devices) {
					t.Fatalf("%s: counts diverge: records %d/%d events %d/%d devices %d/%d",
						stage, db.NumRecords(), ref.numRecords(), db.NumEvents(), ref.numEvents(),
						db.NumDevices(), len(ref.devices))
				}
				for d := DeviceID(0); d < 8; d++ {
					for e := Epoch(-4); e <= 10; e++ {
						got, want := db.EpochEvents(d, e), ref.epochEvents(d, e)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: EpochEvents(%d,%d) = %v, ref %v", stage, d, e, got, want)
						}
					}
					w := db.WindowEvents(d, -2, 9)
					for i, evs := range w {
						if want := ref.epochEvents(d, Epoch(i)-2); !reflect.DeepEqual(evs, want) {
							t.Fatalf("%s: WindowEvents(%d)[%d] = %v, ref %v", stage, d, i, evs, want)
						}
					}
				}
			}

			checkScan := func(db *Database, stage string) {
				t.Helper()
				for trial := 0; trial < 8; trial++ {
					sel := randomSelector(rng)
					d := DeviceID(rng.Intn(8))
					first := Epoch(rng.Intn(8) - 3)
					last := first + Epoch(rng.Intn(6))
					got := selectCompiled(db, sel, d, first, last)
					for i := range got {
						want := Select(ref.epochEvents(d, first+Epoch(i)), sel)
						if !reflect.DeepEqual(got[i], want) {
							t.Fatalf("%s: compiled scan (%T, dev %d, epoch %d) = %v, ref Select %v",
								stage, sel, d, first+Epoch(i), got[i], want)
						}
					}
				}
			}

			for op := 0; op < 300; op++ {
				switch r := rng.Intn(100); {
				case r < 70:
					nextID++
					ev := randomEvent(rng, nextID)
					epoch := EpochOfDay(ev.Day, 7)
					db.Record(epoch, ev)
					ref.record(epoch, ev)
				case r < 75:
					floor := Epoch(rng.Intn(12) - 4)
					if got, want := db.EvictBefore(floor), ref.evictBefore(floor); got != want {
						t.Fatalf("op %d: EvictBefore(%d) removed %d, ref %d", op, floor, got, want)
					}
				case r < 90:
					checkReads(db, fmt.Sprintf("op %d", op))
				default:
					checkScan(db, fmt.Sprintf("op %d", op))
				}
			}

			checkReads(db, "final")
			checkScan(db, "final")
			var live []Event
			for _, d := range db.Devices() {
				for _, e := range db.DeviceEpochs(d) {
					live = append(live, db.EpochEvents(d, e)...)
				}
			}
			frozen := NewFrozen(7, live)
			ref.freeze()
			checkReads(frozen, "frozen")
			checkScan(frozen, "frozen")

			// Deterministic iteration surfaces must agree too.
			for name, db := range map[string]*Database{"recorded": db, "frozen": frozen} {
				if !reflect.DeepEqual(conversionsOf(db), refConversions(ref)) {
					t.Fatalf("%s conversions diverge from reference", name)
				}
			}
		})
	}
}

// conversionsOf lists db's conversions by device, then epoch, then event
// order, read through the store's public per-device surfaces.
func conversionsOf(db *Database) []Event {
	var out []Event
	for _, d := range db.Devices() {
		for _, e := range db.DeviceEpochs(d) {
			for _, ev := range db.EpochEvents(d, e) {
				if ev.IsConversion() {
					out = append(out, ev)
				}
			}
		}
	}
	return out
}

// refConversions is conversionsOf over the reference store.
func refConversions(ref *refStore) []Event {
	var out []Event
	for d := DeviceID(0); d < 8; d++ {
		for e := Epoch(-4); e <= 10; e++ {
			for _, ev := range ref.epochEvents(d, e) {
				if ev.IsConversion() {
					out = append(out, ev)
				}
			}
		}
	}
	return out
}

// TestBulkLoadersMatchRecordLoop holds NewFrozen to the per-event Record
// loop: same batch (including duplicated (Day, ID) keys, which the loader's
// stability tiebreak must keep in arrival order), same store observables,
// same compiled scans.
func TestBulkLoadersMatchRecordLoop(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batch := make([]Event, 400)
		for i := range batch {
			id := EventID(i + 1)
			if i > 0 && rng.Intn(10) == 0 {
				id = batch[rng.Intn(i)].ID // duplicate key: stability matters
			}
			batch[i] = randomEvent(rng, id)
			if id != EventID(i+1) {
				batch[i].Day = batch[slices.IndexFunc(batch[:i], func(e Event) bool { return e.ID == id })].Day
			}
		}
		const epochDays = 7
		loop := NewDatabase()
		for _, ev := range batch {
			loop.Record(EpochOfDay(ev.Day, epochDays), ev)
		}
		frozen := NewFrozen(epochDays, batch)
		for name, db := range map[string]*Database{"NewFrozen": frozen} {
			if !reflect.DeepEqual(loop.Devices(), db.Devices()) {
				t.Fatalf("seed %d: %s device sets diverge", seed, name)
			}
			if loop.NumRecords() != db.NumRecords() || loop.NumEvents() != db.NumEvents() {
				t.Fatalf("seed %d: %s counts diverge", seed, name)
			}
			for _, d := range loop.Devices() {
				if !reflect.DeepEqual(loop.DeviceEpochs(d), db.DeviceEpochs(d)) {
					t.Fatalf("seed %d: %s epochs of device %d diverge", seed, name, d)
				}
				for _, e := range loop.DeviceEpochs(d) {
					if !reflect.DeepEqual(loop.EpochEvents(d, e), db.EpochEvents(d, e)) {
						t.Fatalf("seed %d: %s record (%d, %d) diverges:\nloop %v\nbulk %v",
							seed, name, d, e, loop.EpochEvents(d, e), db.EpochEvents(d, e))
					}
				}
			}
			for trial := 0; trial < 10; trial++ {
				sel := randomSelector(rng)
				d := DeviceID(rng.Intn(8))
				if !reflect.DeepEqual(selectCompiled(db, sel, d, -2, 9), selectCompiled(loop, sel, d, -2, 9)) {
					t.Fatalf("seed %d: %s compiled scan diverges", seed, name)
				}
			}
		}
	}
}

// TestFrozenConcurrentCompiledScans hammers a frozen store from concurrent
// readers running compiled scans, window views, and plain reads — the
// -race proof that the columnar read path needs no synchronization.
func TestFrozenConcurrentCompiledScans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := make([]Event, 500)
	for i := range evs {
		evs[i] = randomEvent(rng, EventID(i+1))
	}
	db := NewFrozen(7, evs)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var views []EventView
			for iter := 0; iter < 200; iter++ {
				sel := randomSelector(rng)
				m, ok := db.Compile(sel)
				d := DeviceID(rng.Intn(8))
				views = db.WindowViewsInto(views, d, 0, 5)
				for _, v := range views {
					for i := 0; i < v.Len(); i++ {
						want := sel.Relevant(v.Events()[i])
						if ok {
							if got := m.Match(v, i); got != want {
								panic(fmt.Sprintf("matcher diverges from selector: %v vs %v", got, want))
							}
						}
					}
				}
				db.EpochEvents(d, Epoch(rng.Intn(6)))
				db.WindowEvents(d, 0, 5)
			}
		}(w)
	}
	wg.Wait()
}
