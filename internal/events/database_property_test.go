package events

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// refStore is the original map-of-slices store (device → epoch → []Event
// with a dense per-device index compiled at freeze), kept verbatim as the
// executable specification the arena store is property-tested against.
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
	sites := []Site{Intern("nike.com"), Intern("adidas.com"), Intern("puma.com")}
	camps := []Sym{Intern(""), Intern("p0"), Intern("p1"), Intern("p2"), Intern("p3")}
	ev := Event{
		ID:         id,
		Device:     DeviceID(rng.Intn(7)),
		Day:        rng.Intn(70) - 10,
		Advertiser: sites[rng.Intn(len(sites))],
		Publisher:  Intern([]string{"pub.example", "news.example"}[rng.Intn(2)]),
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
	sites := []Site{Intern("nike.com"), Intern("adidas.com"), Intern("absent.example")}
	camps := []Sym{Intern(""), Intern("p0"), Intern("p1"), Intern("p2"), Intern("p9")}
	var sel Selector
	switch rng.Intn(4) {
	case 0:
		n := rng.Intn(4)
		set := make(map[Sym]bool, n)
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
					for i, v := range db.WindowViewsInto(nil, d, -2, 9) {
						if want := ref.epochEvents(d, Epoch(i)-2); !reflect.DeepEqual(v.Events(), want) {
							t.Fatalf("%s: WindowViewsInto(%d)[%d] = %v, ref %v", stage, d, i, v.Events(), want)
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

// sortedDevices returns the reference's devices in ascending order.
func (db *refStore) sortedDevices() []DeviceID {
	out := make([]DeviceID, 0, len(db.devices))
	for d := range db.devices {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// sortedEpochs returns device d's populated epochs in ascending order, nil
// when it has none.
func (db *refStore) sortedEpochs(d DeviceID) []Epoch {
	ds := db.devices[d]
	if ds == nil || len(ds.epochs) == 0 {
		return nil
	}
	out := make([]Epoch, 0, len(ds.epochs))
	for e := range ds.epochs {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// keys lists every reference record's key in (epoch, device) order.
func (db *refStore) keys() []DeviceEpochKey {
	keys := []DeviceEpochKey{}
	for _, d := range db.sortedDevices() {
		for _, e := range db.sortedEpochs(d) {
			keys = append(keys, DeviceEpochKey{d, e})
		}
	}
	slices.SortStableFunc(keys, func(a, b DeviceEpochKey) int { return cmp.Compare(a.Epoch, b.Epoch) })
	return keys
}

// arenaSelectors covers every compiled selector form over the advertisers
// and campaigns arenaEvent draws, so a scan-key column that disagrees with
// its events changes some scan's result.
var arenaSelectors = []Selector{
	CampaignSelector{Advertiser: Intern("nike.com")},
	CampaignSelector{Advertiser: Intern("adidas.com"), Campaigns: map[Sym]bool{Intern("p0"): true, Intern("p2"): true}},
	ProductSelector{Advertiser: Intern("puma.com"), Product: Intern("p1")},
	ProductSelector{Advertiser: Intern("nike.com"), Product: Intern("p3")},
	WindowSelector{Inner: CampaignSelector{Advertiser: Intern("adidas.com")}, FirstDay: 2, LastDay: 40},
	SelectorFunc(func(ev Event) bool { return ev.IsImpression() && ev.Advertiser == Intern("puma.com") }),
}

// arenaEvent draws an event whose advertiser, campaign and kind follow from
// its arrival number seq, so two events with equal (Day, ID) still differ.
func arenaEvent(seq int, d DeviceID, day int, id EventID) Event {
	sites := []Site{Intern("nike.com"), Intern("adidas.com"), Intern("puma.com")}
	ev := Event{
		ID:         id,
		Device:     d,
		Day:        day,
		Advertiser: sites[seq%len(sites)],
		Publisher:  Intern("pub.example"),
		Campaign:   Intern(fmt.Sprintf("p%d", seq%5)),
		Value:      float64(seq),
	}
	if seq%4 == 3 {
		ev.Kind = KindConversion
		ev.Product = ev.Campaign
	}
	return ev
}

// checkStoreVsRef holds a store — recorded, bulk-loaded, or bulk-loaded and
// then recorded into — to the reference on every read: counts, device and
// epoch lists, Keys, EpochEvents, WindowViewsInto (each view's scan keys
// against its events) and compiled scans. It checks that every live region lies inside its
// chunk's carved slots and overlaps no other, then appends to every returned
// slice and checks that no record's reads moved.
func checkStoreVsRef(t *testing.T, db *Database, ref *refStore, stage string) {
	t.Helper()
	if db.NumRecords() != ref.numRecords() || db.NumEvents() != ref.numEvents() ||
		db.NumDevices() != len(ref.devices) {
		t.Fatalf("%s: counts diverge: records %d/%d events %d/%d devices %d/%d", stage,
			db.NumRecords(), ref.numRecords(), db.NumEvents(), ref.numEvents(), db.NumDevices(), len(ref.devices))
	}
	devs := ref.sortedDevices()
	if got := db.Devices(); !slices.Equal(got, devs) {
		t.Fatalf("%s: Devices = %v, ref %v", stage, got, devs)
	}
	if got, want := db.Keys(), ref.keys(); !slices.Equal(got, want) {
		t.Fatalf("%s: Keys = %v, ref %v", stage, got, want)
	}
	lo, hi := Epoch(0), Epoch(-1)
	for i, k := range ref.keys() {
		if i == 0 || k.Epoch < lo {
			lo = k.Epoch
		}
		if i == 0 || k.Epoch > hi {
			hi = k.Epoch
		}
	}
	lo, hi = lo-1, hi+1
	var views []EventView
	for _, d := range devs {
		if got, want := db.DeviceEpochs(d), ref.sortedEpochs(d); !slices.Equal(got, want) {
			t.Fatalf("%s: DeviceEpochs(%d) = %v, ref %v", stage, d, got, want)
		}
		views = db.WindowViewsInto(views, d, lo, hi)
		for e := lo; e <= hi; e++ {
			want := ref.epochEvents(d, e)
			if got := db.EpochEvents(d, e); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: EpochEvents(%d, %d) = %v, ref %v", stage, d, e, got, want)
			}
			v := views[e-lo]
			if got := v.Events(); v.Len() != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: WindowViewsInto(%d)[epoch %d] = %v, ref %v", stage, d, e, got, want)
			}
			for i, ev := range want {
				key := evKey{day: clampDay(ev.Day), adv: ev.Advertiser.n,
					camp: ev.Campaign.n, kind: uint8(ev.Kind)}
				if v.keys[i] != key {
					t.Fatalf("%s: view (%d, %d) key %d = %+v, want %+v", stage, d, e, i, v.keys[i], key)
				}
			}
		}
		for _, sel := range arenaSelectors {
			got := selectCompiled(db, sel, d, lo, hi)
			for i := range got {
				if want := Select(ref.epochEvents(d, lo+Epoch(i)), sel); !reflect.DeepEqual(got[i], want) {
					t.Fatalf("%s: compiled scan (%T, dev %d, epoch %d) = %v, ref %v",
						stage, sel, d, lo+Epoch(i), got[i], want)
				}
			}
		}
	}
	type slot struct{ chunk, off uint32 }
	for _, seg := range db.segs {
		e := seg.epoch
		owner := make(map[slot]DeviceID)
		for d, r := range seg.byDevice.all {
			carved := uint32(len(seg.evs[r.chunk]))
			if int(r.chunk) == len(seg.evs)-1 {
				carved = seg.tail
			}
			if r.n > r.cap || r.off+r.cap > carved {
				t.Fatalf("%s: record (%d, %d) region %+v outside its chunk's %d carved slots", stage, d, e, r, carved)
			}
			for i := r.off; i < r.off+r.cap; i++ {
				if o, ok := owner[slot{r.chunk, i}]; ok {
					t.Fatalf("%s: records (%d, %d) and (%d, %d) share chunk %d slot %d", stage, o, e, d, e, r.chunk, i)
				}
				owner[slot{r.chunk, i}] = d
			}
		}
	}
	// A caller's append to a returned slice must reallocate, never write
	// into the next region of the arena.
	for _, k := range ref.keys() {
		_ = append(db.EpochEvents(k.Device, k.Epoch), Event{ID: 1 << 62})
		views = db.WindowViewsInto(views, k.Device, k.Epoch, k.Epoch)
		_ = append(views[0].Events(), Event{ID: 1 << 62})
	}
	for _, k := range ref.keys() {
		if got, want := db.EpochEvents(k.Device, k.Epoch), ref.epochEvents(k.Device, k.Epoch); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: after appends, EpochEvents(%d, %d) = %v, ref %v", stage, k.Device, k.Epoch, got, want)
		}
	}
}

// arenaOp is one step of an arena scenario: a Record, or an EvictBefore.
type arenaOp struct {
	evict bool
	floor Epoch
	ev    Event
}

// TestArenaVsReferenceAtVolume drives the mutable store's arena through the
// cases the random property test is too small to reach — chunk boundaries,
// a record larger than the chunk cap, out-of-order inserts at every
// position of a region including the insert that moves it, duplicate
// (Day, ID) keys, and eviction between them — and holds every read and
// compiled scan to the reference after each eviction and at the end of each
// row. The touched record is checked after every op.
func TestArenaVsReferenceAtVolume(t *testing.T) {
	const epochDays = 7
	rows := []struct {
		name string
		ops  func(rng *rand.Rand) []arenaOp
		// minChunks is the least number of chunks epoch 0's segment must
		// end with, so the row is known to cross that many boundaries.
		minChunks int
		// oversize asks that epoch 0 end with a chunk past maxChunk.
		oversize bool
	}{
		{
			name: "chunk boundaries",
			ops: func(rng *rand.Rand) []arenaOp {
				var ops []arenaOp
				for round := 1; round <= 4; round++ {
					for d := 0; d < 600; d += round {
						ops = append(ops, arenaOp{ev: arenaEvent(len(ops), DeviceID(d), rng.Intn(epochDays), EventID(len(ops)))})
					}
				}
				return ops
			},
			minChunks: 4,
		},
		{
			name: "hot device past the chunk cap",
			ops: func(rng *rand.Rand) []arenaOp {
				var ops []arenaOp
				for i := 0; i < 3*maxChunk; i++ {
					d := DeviceID(1)
					if i%5 == 0 {
						d = DeviceID(2 + rng.Intn(40))
					}
					ops = append(ops, arenaOp{ev: arenaEvent(i, d, rng.Intn(epochDays), EventID(rng.Intn(1<<20)))})
				}
				return ops
			},
			oversize: true,
		},
		{
			name: "out of order at start, middle and end, and as the region moves",
			ops: func(rng *rand.Rand) []arenaOp {
				var ops []arenaOp
				n, moves := 0, 0
				for i := 0; i < 300; i++ {
					// A neighbour record after every insert, so a region
					// that spills or moves badly lands on live events.
					ops = append(ops, arenaOp{ev: arenaEvent(len(ops), DeviceID(100+i), 3, EventID(i))})
					pos := rng.Intn(3)
					if n > 0 && n&(n-1) == 0 { // a power of two: this insert moves the region
						pos = moves % 3
						moves++
					}
					var day int
					var id EventID
					switch pos {
					case 0: // start
						day, id = 0, EventID(1000-i)
					case 1: // middle
						day, id = 3, EventID(rng.Intn(1000))
					default: // end
						day, id = 6, EventID(1000+i)
					}
					ops = append(ops, arenaOp{ev: arenaEvent(len(ops), 5, day, id)})
					n++
				}
				return ops
			},
		},
		{
			name: "duplicate (Day, ID) pairs",
			ops: func(rng *rand.Rand) []arenaOp {
				var ops []arenaOp
				for i := 0; i < 800; i++ {
					d := DeviceID(rng.Intn(4))
					ops = append(ops, arenaOp{ev: arenaEvent(i, d, rng.Intn(2*epochDays), EventID(1+rng.Intn(5)))})
				}
				return ops
			},
		},
		{
			name: "interleaved EvictBefore",
			ops: func(rng *rand.Rand) []arenaOp {
				var ops []arenaOp
				floor := Epoch(0)
				for i := 0; i < 3000; i++ {
					if i%150 == 149 {
						if rng.Intn(4) == 0 {
							floor -= 2 // a floor below the last one evicts nothing
						} else {
							floor++
						}
						ops = append(ops, arenaOp{evict: true, floor: floor})
						continue
					}
					// Mostly at or past the floor, sometimes into an evicted
					// epoch, which starts a fresh segment.
					day := int(floor)*epochDays + rng.Intn(4*epochDays) - 2
					ops = append(ops, arenaOp{ev: arenaEvent(i, DeviceID(rng.Intn(300)), day, EventID(i))})
				}
				return ops
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			db, ref := NewDatabase(), newRefStore()
			for i, op := range row.ops(rand.New(rand.NewSource(7))) {
				stage := fmt.Sprintf("op %d", i)
				if op.evict {
					if got, want := db.EvictBefore(op.floor), ref.evictBefore(op.floor); got != want {
						t.Fatalf("%s: EvictBefore(%d) removed %d, ref %d", stage, op.floor, got, want)
					}
					checkStoreVsRef(t, db, ref, stage)
					continue
				}
				e := EpochOfDay(op.ev.Day, epochDays)
				db.Record(e, op.ev)
				ref.record(e, op.ev)
				// Whole-record compares are quadratic in the hot row; past
				// a few dozen events the row-end check covers the contents.
				got, want := db.EpochEvents(op.ev.Device, e), ref.epochEvents(op.ev.Device, e)
				if len(got) != len(want) || (len(want) <= 64 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%s: EpochEvents(%d, %d) = %v, ref %v", stage, op.ev.Device, e, got, want)
				}
			}
			checkStoreVsRef(t, db, ref, "end")
			var chunks [][]Event
			if i, ok := db.find(0); ok {
				chunks = db.segs[i].evs
			}
			if len(chunks) < row.minChunks {
				t.Fatalf("epoch 0 has %d chunks, want ≥ %d", len(chunks), row.minChunks)
			}
			if row.oversize && !slices.ContainsFunc(chunks, func(c []Event) bool { return len(c) > maxChunk }) {
				t.Fatal("no record outgrew the chunk cap")
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
			}
		}(w)
	}
	wg.Wait()
}

// FuzzStoreVsReference reads its input as a split byte and then four-byte
// ops — Record of a fuzzed device, day and ID; EvictBefore; or a full
// check. The first split ops are all read as events and bulk-loaded with
// NewFrozen; the rest run against that store. After every check op and at
// the end, the store is held to the reference.
func FuzzStoreVsReference(f *testing.F) {
	f.Add([]byte{})
	var inOrder, shuffled []byte
	for i := byte(0); i < 40; i++ {
		inOrder = append(inOrder, 0, i%3, 32+i/4, i)
		shuffled = append(shuffled, i%6, i%5, 32+(i*37)%29, i%4)
	}
	f.Add(append([]byte{0}, inOrder...))
	evictAndCheck := []byte{6, 7, 0, 0, 7, 0, 0, 0, 0, 1, 20, 9}
	f.Add(append(append([]byte{0}, shuffled...), evictAndCheck...))
	f.Add(append(append([]byte{25}, shuffled...), evictAndCheck...))
	f.Add(append(append([]byte{40}, inOrder...), shuffled...))
	f.Fuzz(func(t *testing.T, data []byte) {
		const epochDays = 7
		ref := newRefStore()
		split := 0
		if len(data) > 0 {
			split, data = int(data[0]), data[1:]
		}
		var prefix []Event
		i := 0
		for ; i+4 <= len(data) && i/4 < split; i += 4 {
			ev := arenaEvent(i/4+int(data[i]/8), DeviceID(data[i+1]%16), int(data[i+2])-32, EventID(data[i+3]))
			prefix = append(prefix, ev)
			ref.record(EpochOfDay(ev.Day, epochDays), ev)
		}
		db := NewFrozen(epochDays, prefix)
		for ; i+4 <= len(data); i += 4 {
			op, dev, day, id := data[i], data[i+1], data[i+2], data[i+3]
			stage := fmt.Sprintf("op %d", i/4)
			switch op % 8 {
			case 6:
				floor := Epoch(int(dev%48) - 6)
				if got, want := db.EvictBefore(floor), ref.evictBefore(floor); got != want {
					t.Fatalf("%s: EvictBefore(%d) removed %d, ref %d", stage, floor, got, want)
				}
			case 7:
				checkStoreVsRef(t, db, ref, stage)
			default:
				ev := arenaEvent(i/4+int(op/8), DeviceID(dev%16), int(day)-32, EventID(id))
				e := EpochOfDay(ev.Day, epochDays)
				db.Record(e, ev)
				ref.record(e, ev)
			}
		}
		checkStoreVsRef(t, db, ref, "end")
	})
}
