package events

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Columnar frozen layout and compiled selectors (DESIGN.md §9).
//
// The report hot path spends its time in two places: charging the budget
// ledger and scanning device-epoch records for relevant events. The ledger
// side is a flat table since PR 3; this file gives the storage side the same
// treatment. A frozen database holds every event in one contiguous arena,
// grouped by (device, epoch), with each record reduced to an {off, len}
// span — no per-record heap slices, no map lookup per epoch — and carries a
// parallel column of integer scan keys (site and campaign interned to dense
// IDs, day, kind) so the built-in selectors lower to straight integer
// compares instead of an interface call per event.
//
// The same key column exists on the mutable store: Record interns as it
// appends, so the streaming service's day-flush reads get the compiled scan
// without a frozen arena.

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

// intern is the database's append-only symbol table: advertiser sites and
// campaign strings mapped to dense IDs at Record/NewFrozen time. Lookups during
// selector compilation are read-only on the maps, so any number of
// concurrent readers may compile; the maps and the one-entry caches are
// written only inside Record and NewFrozen, under the store's existing
// single-writer phase discipline (readers never touch the caches).
type intern struct {
	adv  map[Site]uint32
	camp map[string]uint32
	// One-entry caches for the ingest path: consecutive events overwhelmingly
	// repeat the advertiser (and often the campaign), and the repeated
	// strings usually share backing storage, so the equality check is a
	// pointer compare — much cheaper than re-hashing the string per event.
	lastAdv    Site
	lastAdvID  uint32
	lastCamp   string
	lastCampID uint32
	cached     bool
}

func newIntern() intern {
	return intern{adv: make(map[Site]uint32), camp: make(map[string]uint32)}
}

func (in *intern) siteID(s Site) uint32 {
	id, ok := in.adv[s]
	if !ok {
		id = uint32(len(in.adv) + 1)
		in.adv[s] = id
	}
	return id
}

func (in *intern) campaignID(c string) uint32 {
	id, ok := in.camp[c]
	if !ok {
		id = uint32(len(in.camp) + 1)
		in.camp[c] = id
	}
	return id
}

// keyOf projects ev onto its scan key, interning the string fields.
func (in *intern) keyOf(ev Event) evKey {
	if !in.cached || ev.Advertiser != in.lastAdv {
		in.lastAdv, in.lastAdvID = ev.Advertiser, in.siteID(ev.Advertiser)
	}
	if !in.cached || ev.Campaign != in.lastCamp {
		in.lastCamp, in.lastCampID = ev.Campaign, in.campaignID(ev.Campaign)
		in.cached = true
	}
	return evKey{
		day:  clampDay(ev.Day),
		adv:  in.lastAdvID,
		camp: in.lastCampID,
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

// NewFrozen builds a frozen database straight from a batch of day-stamped
// events, skipping the mutable epoch segments entirely: one permutation into
// (device, day, ID, arrival) order (sortByDeviceDayID) — epochs are monotone
// in days, so each device's records come out as contiguous, epoch-ordered
// runs — then a single gather pass lays the arena, key column, and span
// table. The permutation's device count sizes the device map and list up
// front. This is the batch engine's load path (Dataset.Build): it allocates
// the columnar arenas and the sort's index buffers, and no map entry or slice
// per record. Its reads are indistinguishable from those of a mutable store
// fed the same events by Record, for events in any order.
func NewFrozen(epochDays int, evs []Event) *Database {
	db := NewDatabase()
	col := &colStore{
		evs:  make([]Event, 0, len(evs)),
		keys: make([]evKey, 0, len(evs)),
	}
	if len(evs) > 0 {
		idx, devices := sortByDeviceDayID(evs)
		col.dev = make(map[DeviceID]devIndex, devices)
		col.devs = make([]DeviceID, 0, devices)
		for i := 0; i < len(idx); {
			dev := evs[idx[i]].Device
			di := devIndex{base: uint32(len(col.spans)), first: EpochOfDay(evs[idx[i]].Day, epochDays)}
			prev := di.first - 1
			for i < len(idx) && evs[idx[i]].Device == dev {
				e := EpochOfDay(evs[idx[i]].Day, epochDays)
				for prev+1 < e { // empty slots between populated epochs
					col.spans = append(col.spans, span{})
					prev++
				}
				sp := span{off: uint32(len(col.evs))}
				for i < len(idx) && evs[idx[i]].Device == dev &&
					EpochOfDay(evs[idx[i]].Day, epochDays) == e {
					ev := evs[idx[i]]
					col.evs = append(col.evs, ev)
					col.keys = append(col.keys, db.intern.keyOf(ev))
					i++
				}
				sp.n = uint32(len(col.evs)) - sp.off
				col.spans = append(col.spans, sp)
				col.records++
				prev = e
			}
			di.count = uint32(len(col.spans)) - di.base
			col.devs = append(col.devs, dev)
			col.dev[dev] = di
		}
	}
	db.col = col
	db.epochs = nil
	return db
}

// radixBits is the digit width of sortByDeviceDayID's device passes: a
// 2 048-entry count table, two passes for any device ID below 2^22.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// sortByDeviceDayID returns the permutation of evs in (device, day, ID,
// arrival) order — NewFrozen's layout order — and the number of distinct
// devices. Epochs are monotone in days, so each device's records come out as
// contiguous epoch-ordered runs, and the arrival-index tiebreak makes the
// permutation equal to a stable (Day, ID) sort.
//
// It assumes nothing about the input order. A stable LSD radix sort on the
// device ID, with only as many radixBits-wide passes as the largest ID
// needs, groups the events by device in linear time, keeping each device's
// events in arrival order; each device's run is then sorted by (Day, ID,
// arrival). Runs are a few events long on the paper's traces, so the
// comparison sorts cost little even though generators emit events in ID
// order with random days.
func sortByDeviceDayID(evs []Event) (idx []int32, devices int) {
	n := len(evs)
	idx = make([]int32, n)
	keys := make([]DeviceID, n)
	var top DeviceID
	for i := range evs {
		idx[i] = int32(i)
		keys[i] = evs[i].Device
		top = max(top, keys[i])
	}
	if passes := (bits.Len64(uint64(top)) + radixBits - 1) / radixBits; passes > 0 {
		idx2, keys2 := make([]int32, n), make([]DeviceID, n)
		var next [1 << radixBits]int
		for p := 0; p < passes; p++ {
			shift := uint(p * radixBits)
			clear(next[:])
			for _, k := range keys {
				next[(k>>shift)&radixMask]++
			}
			sum := 0
			for d, c := range next {
				next[d] = sum
				sum += c
			}
			for i, k := range keys {
				d := (k >> shift) & radixMask
				j := next[d]
				next[d]++
				keys2[j], idx2[j] = k, idx[i]
			}
			keys, keys2 = keys2, keys
			idx, idx2 = idx2, idx
		}
	}
	byDayID := func(a, b int32) int {
		ea, eb := &evs[a], &evs[b]
		return cmp.Or(cmp.Compare(ea.Day, eb.Day), cmp.Compare(ea.ID, eb.ID), cmp.Compare(a, b))
	}
	for i := 0; i < n; devices++ {
		j := i + 1
		for j < n && keys[j] == keys[i] {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(idx[i:j], byDayID)
		}
		i = j
	}
	return idx, devices
}

// span is one (device, epoch) record's range in the frozen arena.
type span struct{ off, n uint32 }

// devIndex locates one device's dense epoch-span run inside the shared span
// table: slot i covers epoch first+i.
type devIndex struct {
	base  uint32
	count uint32
	first Epoch
}

// colStore is the frozen database: four flat arenas (events, keys, spans,
// device list) plus one map from device to its span run. Offsets are u32 —
// a single in-process store past 4.29 G events is out of scope by orders of
// magnitude.
type colStore struct {
	evs     []Event // payload arena, grouped by device then epoch, (Day, ID)-sorted within a record
	keys    []evKey // scan column, parallel to evs
	spans   []span  // dense per-(device, epoch) ranges
	devs    []DeviceID
	dev     map[DeviceID]devIndex
	records int // non-empty spans
}

// spanAt returns device d's span at epoch e (zero span when empty or out of
// the device's populated range).
func (c *colStore) spanAt(d DeviceID, e Epoch) span {
	di, ok := c.dev[d]
	if !ok {
		return span{}
	}
	i := int64(e) - int64(di.first)
	if i < 0 || i >= int64(di.count) {
		return span{}
	}
	return c.spans[int64(di.base)+i]
}

func (c *colStore) epochEvents(d DeviceID, e Epoch) []Event {
	sp := c.spanAt(d, e)
	if sp.n == 0 {
		return nil
	}
	return c.evs[sp.off : sp.off+sp.n : sp.off+sp.n]
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
// over the epoch window [first, last], empty views for empty epochs. It is
// the scan-path sibling of WindowEventsInto and works in both phases: on a
// frozen store each view is a span lookup into the arena, on a mutable
// store it reads the epoch segments directly (same single-writer discipline
// as every other read).
func (db *Database) WindowViewsInto(buf []EventView, d DeviceID, first, last Epoch) []EventView {
	if last < first {
		return buf[:0]
	}
	k := int(last-first) + 1
	if cap(buf) < k {
		buf = make([]EventView, k)
	} else {
		buf = buf[:k]
		for i := range buf {
			buf[i] = EventView{}
		}
	}
	if db.col != nil {
		di, ok := db.col.dev[d]
		if !ok {
			return buf
		}
		for e := first; e <= last; e++ {
			i := int64(e) - int64(di.first)
			if i < 0 || i >= int64(di.count) {
				continue
			}
			if sp := db.col.spans[int64(di.base)+i]; sp.n > 0 {
				buf[e-first] = EventView{
					evs:  db.col.evs[sp.off : sp.off+sp.n : sp.off+sp.n],
					keys: db.col.keys[sp.off : sp.off+sp.n],
				}
			}
		}
		return buf
	}
	for e := first; e <= last; e++ {
		if seg := db.epochs[e]; seg != nil {
			if r, ok := seg.byDevice[d]; ok {
				buf[e-first].evs, buf[e-first].keys = seg.view(r)
			}
		}
	}
	return buf
}

// Matcher is a Selector compiled against this database's interned columns:
// the relevance predicate of the built-in selector forms lowered to integer
// compares over evKey. A Matcher is only meaningful against views of the
// database that compiled it (the intern IDs are per-database).
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
// of Selector.Relevant, with no interface dispatch and no string compares.
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
	// Campaigns the database never interned cannot match any event and
	// drop out of the compiled set, as do entries explicitly mapped to
	// false (Relevant tests the map value, not mere presence); an empty
	// surviving set matches nothing.
	first := true
	for c, on := range s.Campaigns {
		if !on {
			continue
		}
		id, ok := db.intern.camp[c]
		if !ok {
			continue
		}
		if first {
			m.camp = id
			first = false
			continue
		}
		m.camps = append(m.camps, id)
	}
	m.none = first
	return true
}

func (db *Database) compileProduct(m *Matcher, s ProductSelector) bool {
	adv, okA := db.intern.adv[s.Advertiser]
	camp, okC := db.intern.camp[s.Product]
	if !okA || !okC {
		m.none = true
		return true
	}
	m.adv = adv
	m.camp = camp
	return true
}
