package events

import "math"

// Scan keys and compiled selectors (DESIGN.md §9).
//
// The report hot path spends its time in two places: charging the budget
// ledger and scanning device-epoch records for relevant events. Beside every
// event, the store's arena keeps a column of integer scan keys (the
// advertiser as a dense per-store ID, the campaign symbol, day, kind) —
// Record and NewFrozen compute them as they write — so the built-in
// selectors lower to straight integer compares over zero-copy record views
// instead of an interface call per event.

// evKey is the scan-hot projection of one event: every field the built-in
// selectors can test, reduced to integers. Day saturates at the int32
// bounds; the Epoch math in event.go already confines realistic simulations
// well inside them.
type evKey struct {
	day  int32
	adv  uint32
	camp uint32
	kind uint8
}

// intern is the database's scan-key state, written only inside Record and
// NewFrozen under the store's single-writer phase discipline. Advertisers
// map to dense per-store IDs, because MultiScan sizes and clears its
// dispatch table by the largest one on every device visit; campaigns are
// keyed by symbol, with a set of the symbols the store has seen so that a
// selector naming none of them compiles to match-none. Selector compilation
// only reads, so any number of concurrent readers may compile.
type intern struct {
	adv   map[Site]uint32
	camps []uint64 // bit set over campaign symbol numbers
	// One-entry cache for the ingest path: consecutive events
	// overwhelmingly repeat the advertiser.
	lastAdv   Site
	lastAdvID uint32
	cached    bool
}

func newIntern() intern {
	return intern{adv: make(map[Site]uint32)}
}

func (in *intern) siteID(s Site) uint32 {
	id, ok := in.adv[s]
	if !ok {
		id = uint32(len(in.adv) + 1)
		in.adv[s] = id
	}
	return id
}

// sawCampaign reports whether the store holds an event of campaign c.
func (in *intern) sawCampaign(c Sym) bool {
	w := int(c.n >> 6)
	return w < len(in.camps) && in.camps[w]&(1<<(c.n&63)) != 0
}

// keyOf projects ev onto its scan key, noting its advertiser and campaign.
func (in *intern) keyOf(ev *Event) evKey {
	if !in.cached || ev.Advertiser != in.lastAdv {
		in.lastAdv, in.lastAdvID = ev.Advertiser, in.siteID(ev.Advertiser)
		in.cached = true
	}
	c := ev.Campaign.n
	if w := int(c >> 6); w >= len(in.camps) {
		in.camps = append(in.camps, make([]uint64, w+1-len(in.camps))...)
	}
	in.camps[c>>6] |= 1 << (c & 63)
	return evKey{
		day:  clampDay(ev.Day),
		adv:  in.lastAdvID,
		camp: c,
		kind: uint8(ev.Kind),
	}
}

func clampDay(d int) int32 {
	if d < math.MinInt32 {
		return math.MinInt32
	}
	if d > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(d)
}

// EventView is a zero-copy view of one device-epoch record: the record's
// slice of the event arena plus its parallel scan keys. The view shares the
// database's memory; callers must not modify the events it exposes.
type EventView struct {
	evs  []Event
	keys []evKey
}

// Len returns the number of events in the record.
func (v EventView) Len() int { return len(v.evs) }

// Events returns the record's events without copying. The slice aliases the
// database; treat it as read-only.
func (v EventView) Events() []Event { return v.evs }

// WindowViewsInto fills buf (resized to last-first+1 entries, reallocating
// only when capacity is short) with zero-copy views of device d's records
// over the epoch window [first, last], empty views for empty epochs: one
// search for the window's first segment, then one index probe per resident
// epoch. Each view's events are
// capped at the record's length, so a caller's append reallocates instead of
// writing into a neighbouring record. It is every window read of the report
// path, compiled or not, under the store's usual read discipline.
func (db *Database) WindowViewsInto(buf []EventView, d DeviceID, first, last Epoch) []EventView {
	if last < first {
		return buf[:0]
	}
	k := int(last-first) + 1
	if cap(buf) < k {
		buf = make([]EventView, k)
	} else {
		buf = buf[:k]
		clear(buf)
	}
	i, _ := db.find(first)
	for _, seg := range db.segs[i:] {
		if seg.epoch > last {
			break
		}
		if r, ok := seg.byDevice.get(d); ok {
			buf[seg.epoch-first].evs, buf[seg.epoch-first].keys = seg.view(r)
		}
	}
	return buf
}

// Matcher is a Selector compiled against this database's scan keys: the
// relevance predicate of the built-in selector forms lowered to integer
// compares over evKey. A Matcher is only meaningful against views of the
// database that compiled it (the advertiser IDs are per-database).
type Matcher struct {
	none     bool
	anyCamp  bool
	adv      uint32
	camp     uint32
	camps    []uint32
	firstDay int32
	lastDay  int32
}

// MatchesNone reports that the compiled selector can match no event in this
// database (e.g. its advertiser or campaigns never occur) — the caller may
// skip the scan entirely, which is exactly the zero-loss case.
func (m *Matcher) MatchesNone() bool { return m.none }

// Match reports whether event i of v is relevant — the compiled equivalent
// of Selector.Relevant, with no interface dispatch.
func (m *Matcher) Match(v EventView, i int) bool {
	k := v.keys[i]
	if m.none || k.kind != uint8(KindImpression) || k.adv != m.adv ||
		k.day < m.firstDay || k.day > m.lastDay {
		return false
	}
	if m.anyCamp || k.camp == m.camp {
		return true
	}
	for _, c := range m.camps {
		if k.camp == c {
			return true
		}
	}
	return false
}

// Compile lowers sel to a column Matcher. ok is false when sel is not one of
// the built-in selector forms (CampaignSelector, ProductSelector,
// WindowSelector over either, by value or pointer) — the caller then falls
// back to interface dispatch. Compilation is read-only on the intern tables,
// so concurrent readers may compile freely; the common selectors compile
// with zero allocations (only a CampaignSelector naming ≥ 2 campaigns
// allocates its small ID set).
func (db *Database) Compile(sel Selector) (Matcher, bool) {
	m := Matcher{firstDay: math.MinInt32, lastDay: math.MaxInt32}
	if !db.compileInto(&m, sel) {
		return Matcher{}, false
	}
	return m, true
}

func (db *Database) compileInto(m *Matcher, sel Selector) bool {
	switch s := sel.(type) {
	case WindowSelector:
		if d := clampDay(s.FirstDay); d > m.firstDay {
			m.firstDay = d
		}
		if d := clampDay(s.LastDay); d < m.lastDay {
			m.lastDay = d
		}
		return db.compileInto(m, s.Inner)
	case *WindowSelector:
		return db.compileInto(m, *s)
	case CampaignSelector:
		return db.compileCampaign(m, s)
	case *CampaignSelector:
		return db.compileCampaign(m, *s)
	case ProductSelector:
		return db.compileProduct(m, s)
	case *ProductSelector:
		return db.compileProduct(m, *s)
	default:
		return false
	}
}

func (db *Database) compileCampaign(m *Matcher, s CampaignSelector) bool {
	adv, ok := db.intern.adv[s.Advertiser]
	if !ok {
		m.none = true
		return true
	}
	m.adv = adv
	if len(s.Campaigns) == 0 {
		m.anyCamp = true
		return true
	}
	// Campaigns the database never saw cannot match any event and drop
	// out of the compiled set, as do entries explicitly mapped to false
	// (Relevant tests the map value, not mere presence); an empty surviving
	// set matches nothing.
	first := true
	for c, on := range s.Campaigns {
		if !on || !db.intern.sawCampaign(c) {
			continue
		}
		if first {
			m.camp = c.n
			first = false
			continue
		}
		m.camps = append(m.camps, c.n)
	}
	m.none = first
	return true
}

func (db *Database) compileProduct(m *Matcher, s ProductSelector) bool {
	adv, ok := db.intern.adv[s.Advertiser]
	if !ok || !db.intern.sawCampaign(s.Product) {
		m.none = true
		return true
	}
	m.adv = adv
	m.camp = s.Product.n
	return true
}
