package events

import (
	"math/rand"
	"testing"
)

// colTestDB holds a two-device trace over 7-day epochs 0 and 1: recorded
// event by event into a mutable store, or laid out by NewFrozen.
func colTestDB(frozen bool) *Database {
	evs := []Event{
		{ID: 1, Kind: KindImpression, Device: 1, Day: 1, Publisher: Intern("pub"), Advertiser: Intern("nike.com"), Campaign: Intern("p0")},
		{ID: 2, Kind: KindImpression, Device: 1, Day: 2, Publisher: Intern("pub"), Advertiser: Intern("nike.com"), Campaign: Intern("p1")},
		{ID: 3, Kind: KindImpression, Device: 1, Day: 3, Publisher: Intern("pub"), Advertiser: Intern("adidas.com"), Campaign: Intern("p0")},
		{ID: 4, Kind: KindConversion, Device: 1, Day: 8, Advertiser: Intern("nike.com"), Product: Intern("p0"), Value: 7},
		{ID: 5, Kind: KindImpression, Device: 2, Day: 9, Publisher: Intern("pub"), Advertiser: Intern("nike.com"), Campaign: Intern("p0")},
	}
	if frozen {
		return NewFrozen(7, evs)
	}
	return recordAll(7, evs)
}

// matchAll collects the relevant events of a window via the compiled
// matcher.
func matchAll(db *Database, sel Selector, d DeviceID, first, last Epoch) []Event {
	m, ok := db.Compile(sel)
	if !ok {
		panic("selector did not compile")
	}
	var out []Event
	for _, v := range db.WindowViewsInto(nil, d, first, last) {
		for i := 0; i < v.Len(); i++ {
			if m.Match(v, i) {
				out = append(out, v.Events()[i])
			}
		}
	}
	return out
}

func TestCompileMatchesSelectorForms(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		db := colTestDB(frozen)
		sels := []Selector{
			CampaignSelector{Advertiser: Intern("nike.com")},
			NewCampaignSelector(Intern("nike.com"), Intern("p0")),
			NewCampaignSelector(Intern("nike.com"), Intern("p0"), Intern("p1"), Intern("p9")),
			NewCampaignSelector(Intern("absent.example"), Intern("p0")),
			CampaignSelector{Advertiser: Intern("nike.com"), Campaigns: map[Sym]bool{Intern("p0"): false}},
			ProductSelector{Advertiser: Intern("nike.com"), Product: Intern("p0")},
			ProductSelector{Advertiser: Intern("nike.com"), Product: Intern("unseen")},
			WindowSelector{Inner: ProductSelector{Advertiser: Intern("nike.com"), Product: Intern("p0")}, FirstDay: 2, LastDay: 9},
			WindowSelector{Inner: WindowSelector{
				Inner: CampaignSelector{Advertiser: Intern("nike.com")}, FirstDay: 0, LastDay: 5},
				FirstDay: 2, LastDay: 9},
			&ProductSelector{Advertiser: Intern("nike.com"), Product: Intern("p0")},
		}
		for _, sel := range sels {
			for d := DeviceID(1); d <= 3; d++ {
				got := matchAll(db, sel, d, 0, 1)
				var want []Event
				for e := Epoch(0); e <= 1; e++ {
					want = append(want, Select(db.EpochEvents(d, e), sel)...)
				}
				if len(got) != len(want) {
					t.Fatalf("frozen=%v %T device %d: matcher found %d events, Select %d",
						frozen, sel, d, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						t.Fatalf("frozen=%v %T device %d: event %d = ID %d, want %d",
							frozen, sel, d, i, got[i].ID, want[i].ID)
					}
				}
			}
		}
	}
}

func TestCompileRejectsOpaqueSelectors(t *testing.T) {
	db := colTestDB(false)
	if _, ok := db.Compile(SelectorFunc(func(Event) bool { return true })); ok {
		t.Fatal("SelectorFunc unexpectedly compiled")
	}
	if _, ok := db.Compile(WindowSelector{Inner: SelectorFunc(func(Event) bool { return true })}); ok {
		t.Fatal("WindowSelector over SelectorFunc unexpectedly compiled")
	}
}

func TestCompileMissingSymbolsMatchesNone(t *testing.T) {
	db := colTestDB(false)
	m, ok := db.Compile(ProductSelector{Advertiser: Intern("absent.example"), Product: Intern("p0")})
	if !ok || !m.MatchesNone() {
		t.Fatalf("absent advertiser: ok=%v none=%v, want compiled match-none", ok, m.MatchesNone())
	}
	m, ok = db.Compile(CampaignSelector{Advertiser: Intern("absent.example")})
	if !ok || !m.MatchesNone() {
		t.Fatalf("absent advertiser, open campaign set: ok=%v none=%v, want compiled match-none", ok, m.MatchesNone())
	}
	m, ok = db.Compile(NewCampaignSelector(Intern("nike.com"), Intern("never-seen")))
	if !ok || !m.MatchesNone() {
		t.Fatalf("absent campaign: ok=%v none=%v, want compiled match-none", ok, m.MatchesNone())
	}
	m, ok = db.Compile(CampaignSelector{Advertiser: Intern("nike.com")})
	if !ok || m.MatchesNone() {
		t.Fatalf("open campaign set: ok=%v none=%v, want compiled matchable", ok, m.MatchesNone())
	}
}

func TestEventViewZeroCopy(t *testing.T) {
	db := colTestDB(true)
	views := db.WindowViewsInto(nil, 1, 0, 1)
	evs := db.EpochEvents(1, 0)
	if len(views) != 2 || views[0].Len() != len(evs) {
		t.Fatalf("views = %v", views)
	}
	// Zero-copy: the view aliases the same arena memory EpochEvents serves.
	if &views[0].Events()[0] != &evs[0] {
		t.Fatal("EventView copied the record instead of aliasing the arena")
	}
}

func TestWindowViewsIntoReusesBuffer(t *testing.T) {
	db := colTestDB(true)
	buf := make([]EventView, 0, 8)
	got := db.WindowViewsInto(buf, 1, 0, 1)
	if cap(got) != cap(buf) {
		t.Fatal("WindowViewsInto reallocated a buffer with sufficient capacity")
	}
	// Stale entries must be cleared on reuse.
	got = db.WindowViewsInto(got, 99, 0, 1)
	for i, v := range got {
		if v.Len() != 0 {
			t.Fatalf("stale view survived reuse at %d", i)
		}
	}
	if inv := db.WindowViewsInto(got, 1, 3, 1); len(inv) != 0 {
		t.Fatalf("inverted window returned %d views", len(inv))
	}
}

// TestFreezeReleasesMutableSegments pins NewFrozen's exact sizing: every
// epoch segment it loads holds one chunk, every record is one region with no
// spare capacity, and the chunks' slots add up to the event count.
func TestFreezeReleasesMutableSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trace := make([]Event, 2000)
	for i := range trace {
		trace[i] = randomEvent(rng, EventID(i+1))
	}
	for _, tc := range []struct {
		name   string
		db     *Database
		events int
	}{{"two devices", colTestDB(true), 5}, {"random trace", NewFrozen(7, trace), len(trace)}} {
		slots := 0
		for _, seg := range tc.db.segs {
			e := seg.epoch
			if len(seg.evs) != 1 || len(seg.keys) != 1 {
				t.Fatalf("%s: epoch %d has %d event and %d key chunks, want 1", tc.name, e, len(seg.evs), len(seg.keys))
			}
			n := len(seg.evs[0])
			used := 0
			for d, r := range seg.byDevice.all {
				if r.chunk != 0 || r.cap != r.n || r.n == 0 {
					t.Fatalf("%s: record (%d, %d) is region %+v, want one exact region", tc.name, d, e, r)
				}
				used += int(r.n)
			}
			if used != n || int(seg.tail) != n || len(seg.keys[0]) != n {
				t.Fatalf("%s: epoch %d uses %d of %d slots (tail %d, %d keys)", tc.name, e, used, n, seg.tail, len(seg.keys[0]))
			}
			slots += n
		}
		if slots != tc.events || tc.db.NumEvents() != tc.events {
			t.Fatalf("%s: %d slots for %d events, want %d", tc.name, slots, tc.db.NumEvents(), tc.events)
		}
	}
}

func TestCompileZeroAlloc(t *testing.T) {
	db := colTestDB(true)
	sel := WindowSelector{Inner: ProductSelector{Advertiser: Intern("nike.com"), Product: Intern("p0")}, FirstDay: 0, LastDay: 30}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := db.Compile(sel); !ok {
			t.Fatal("did not compile")
		}
	})
	if allocs != 0 {
		t.Fatalf("Compile of the workload selector allocates %v/op, want 0", allocs)
	}
}
