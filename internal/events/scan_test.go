package events

import (
	"math/rand"
	"slices"
	"testing"
)

// refLaneSelect is the executable reference for one lane of a window scan:
// Select over each epoch's view, so every event goes through the selector's
// own Relevant rather than a compiled matcher, producing freshly copied
// slices.
func refLaneSelect(db *Database, d DeviceID, sel Selector, first, last Epoch) [][]Event {
	views := db.WindowViewsInto(nil, d, first, last)
	out := make([][]Event, len(views))
	for i, v := range views {
		out[i] = Select(v.Events(), sel)
	}
	return out
}

// scanSites: the fourth site is never recorded, so selectors over it compile
// to MatchesNone lanes.
var scanSites = []Site{Intern("nike.example"), Intern("adidas.example"), Intern("puma.example"), Intern("ghost.example")}
var scanCamps = []Sym{Intern("shoes"), Intern("hats"), Intern("socks")}

// randomScanDB draws a random trace and returns it bulk-loaded by NewFrozen
// and recorded event by event in arrival (ID) order. The days are random, so
// the recorded store's inserts land out of order and its regions move,
// leaving slack and spreading each epoch over several chunks.
func randomScanDB(rng *rand.Rand) (frozen, recorded *Database) {
	var evs []Event
	n := rng.Intn(120)
	for i := 0; i < n; i++ {
		kind := KindImpression
		if rng.Intn(5) == 0 {
			kind = KindConversion
		}
		evs = append(evs, Event{
			ID: EventID(i + 1), Kind: kind,
			Device:     DeviceID(1 + rng.Intn(3)),
			Day:        rng.Intn(60),
			Advertiser: scanSites[rng.Intn(3)],
			Campaign:   scanCamps[rng.Intn(3)],
			Product:    scanCamps[rng.Intn(3)],
		})
	}
	return NewFrozen(7, evs), recordAll(7, evs)
}

// recordAll records evs into a new store one Record at a time.
func recordAll(epochDays int, evs []Event) *Database {
	db := NewDatabase()
	for _, ev := range evs {
		db.Record(EpochOfDay(ev.Day, epochDays), ev)
	}
	return db
}

// arenaShape reports whether some record of db has spare capacity and some
// epoch segment spans more than one chunk.
func arenaShape(db *Database) (slack, chunks bool) {
	for _, seg := range db.segs {
		chunks = chunks || len(seg.evs) > 1
		for _, r := range seg.byDevice.all {
			slack = slack || r.cap > r.n
		}
	}
	return slack, chunks
}

func randomCompiledSelector(rng *rand.Rand) Selector {
	site := scanSites[rng.Intn(len(scanSites))]
	switch rng.Intn(4) {
	case 0:
		return ProductSelector{Advertiser: site, Product: scanCamps[rng.Intn(3)]}
	case 1:
		return NewCampaignSelector(site)
	case 2:
		return NewCampaignSelector(site, scanCamps[rng.Intn(3)], scanCamps[rng.Intn(3)])
	default:
		return WindowSelector{
			Inner:    ProductSelector{Advertiser: site, Product: scanCamps[rng.Intn(3)]},
			FirstDay: rng.Intn(40),
			LastDay:  20 + rng.Intn(50),
		}
	}
}

// TestScanWindowMultiMatchesSingleMatcher property-tests the window scan
// against the Relevant reference: for random lane banks (random selectors,
// windows, devices — including absent devices and MatchesNone lanes), every
// lane's output slices must equal Select over its own window element for
// element, and so must Select's opaque path (the same selector behind a
// SelectorFunc) on the same workspace. Each seed runs on the trace
// bulk-loaded and recorded, and scans each store twice with the same (dirty)
// lane bank on different devices, so arena and span reuse is exercised under
// maximal staleness.
func TestScanWindowMultiMatchesSingleMatcher(t *testing.T) {
	var ms MultiScan
	var lanes []ScanLane
	var sels []Selector
	var slack, chunks bool
	check := func(seed int64, recorded bool, scan, j int, got, want [][]Event) {
		t.Helper()
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("seed %d recorded=%v scan %d lane %d epoch slot %d: got %v want %v",
					seed, recorded, scan, j, i, got[i], want[i])
			}
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frozen, recorded := randomScanDB(rng)
		s, c := arenaShape(recorded)
		slack, chunks = slack || s, chunks || c
		for _, db := range []*Database{frozen, recorded} {
			nl := 1 + rng.Intn(8)
			if cap(lanes) < nl {
				lanes = slices.Grow(lanes, nl-len(lanes))
			}
			lanes, sels = lanes[:nl], sels[:0]
			for j := 0; j < nl; j++ {
				sel := randomCompiledSelector(rng)
				m, ok := db.Compile(sel)
				if !ok {
					t.Fatalf("seed %d: built-in selector failed to compile", seed)
				}
				sels = append(sels, sel)
				first := Epoch(rng.Intn(5))
				last := first + Epoch(rng.Intn(8))
				ln := &lanes[j]
				ln.Matcher, ln.First, ln.Last = m, first, last
				k := int(last-first) + 1
				if cap(ln.Out) < k {
					ln.Out = make([][]Event, k)
				} else {
					ln.Out = ln.Out[:k]
				}
			}
			for scan := 0; scan < 2; scan++ {
				dev := DeviceID(1 + rng.Intn(4)) // 4 is never recorded
				ms.ScanWindow(db, dev, lanes)
				for j := range lanes {
					ln := &lanes[j]
					check(seed, db == recorded, scan, j, ln.Out, refLaneSelect(db, dev, sels[j], ln.First, ln.Last))
				}
				j := rng.Intn(nl)
				ln := &lanes[j]
				m := ln.Matcher
				ln.Matcher = Matcher{none: true} // an opaque selection must not read it
				ms.Select(db, dev, ln, SelectorFunc(sels[j].Relevant))
				check(seed, db == recorded, scan, j, ln.Out, refLaneSelect(db, dev, sels[j], ln.First, ln.Last))
				ln.Matcher = m
			}
		}
	}
	if !slack || !chunks {
		t.Fatalf("recorded stores never had slack (%v) or a multi-chunk epoch (%v)", slack, chunks)
	}
}

// TestScanWindowMultiAliasesFullMatches pins the aliasing discipline on a
// bulk-loaded and a recorded store: an epoch whose events all match must
// alias the store's arena (no copy), and a partial selection must not.
func TestScanWindowMultiAliasesFullMatches(t *testing.T) {
	site := Intern("nike.example")
	evs := []Event{
		{ID: 1, Kind: KindImpression, Device: 1, Day: 0, Advertiser: site, Campaign: Intern("shoes")},
		{ID: 2, Kind: KindImpression, Device: 1, Day: 1, Advertiser: site, Campaign: Intern("shoes")},
		{ID: 3, Kind: KindImpression, Device: 1, Day: 7, Advertiser: site, Campaign: Intern("shoes")},
		{ID: 4, Kind: KindImpression, Device: 1, Day: 8, Advertiser: site, Campaign: Intern("hats")},
	}
	for _, db := range []*Database{NewFrozen(7, evs), recordAll(7, evs)} {
		m, ok := db.Compile(ProductSelector{Advertiser: site, Product: Intern("shoes")})
		if !ok {
			t.Fatal("compile failed")
		}
		lanes := []ScanLane{{Matcher: m, First: 0, Last: 1, Out: make([][]Event, 2)}}
		var ms MultiScan
		ms.ScanWindow(db, 1, lanes)
		epoch0 := db.EpochEvents(1, 0)
		if got := lanes[0].Out[0]; len(got) != 2 || &got[0] != &epoch0[0] {
			t.Fatalf("full-match epoch not aliased to the store: %v", got)
		}
		epoch1 := db.EpochEvents(1, 1)
		if got := lanes[0].Out[1]; len(got) != 1 || &got[0] == &epoch1[0] {
			t.Fatalf("partial epoch should be an arena copy: %v", got)
		}
	}
}
