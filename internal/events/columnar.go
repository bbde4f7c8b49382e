package events

import "math"

// Scan keys and compiled selectors (DESIGN.md §9).
//
// The report hot path spends its time in two places: charging the budget
// ledger and scanning device-epoch records for relevant events. Beside every
// event, the store's arena keeps a column of integer scan keys (the
// advertiser and campaign symbol numbers, day, kind) — Record and NewFrozen
// compute them as they write — so the built-in selectors lower to straight
// integer compares over zero-copy record views instead of an interface call
// per event.

// evKey is the scan-hot projection of one event: every field the built-in
// selectors can test, reduced to integers (names to their symbol numbers).
// Day saturates at the int32 bounds; the Epoch math in event.go already
// confines realistic simulations well inside them.
type evKey struct {
	day  int32
	adv  uint32
	camp uint32
	kind uint8
}

// symSet is a bit set over symbol numbers.
type symSet []uint64

func (s *symSet) add(c Sym) {
	w := int(c.n >> 6)
	if w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[w] |= 1 << (c.n & 63)
}

func (s symSet) has(c Sym) bool {
	w := int(c.n >> 6)
	return w < len(s) && s[w]&(1<<(c.n&63)) != 0
}

// see notes ev's advertiser and campaign in the database's seen sets, so
// that a selector naming none the store holds compiles to match-none. Only
// Record and NewFrozen call it, under the store's single-writer phase
// discipline; compilation only reads the sets, so any number of concurrent
// readers may compile.
func (db *Database) see(ev *Event) {
	db.advs.add(ev.Advertiser)
	db.camps.add(ev.Campaign)
}

// scanKey projects ev onto its scan key. It touches no shared state, so
// NewFrozen's per-epoch fill calls it from its workers.
func scanKey(ev *Event) evKey {
	return evKey{
		day:  clampDay(ev.Day),
		adv:  ev.Advertiser.n,
		camp: ev.Campaign.n,
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
// database that compiled it: its match-none verdict rests on the names that
// database has seen.
type Matcher struct {
	none     bool
	anyCamp  bool
	adv      uint32
	camp     uint32
	camps    []uint32
	firstDay int32
	lastDay  int32
}

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
// back to interface dispatch. Compilation is read-only on the seen sets,
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
	if !db.advs.has(s.Advertiser) {
		m.none = true
		return true
	}
	m.adv = s.Advertiser.n
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
		if !on || !db.camps.has(c) {
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
	if !db.advs.has(s.Advertiser) || !db.camps.has(s.Product) {
		m.none = true
		return true
	}
	m.adv = s.Advertiser.n
	m.camp = s.Product.n
	return true
}
