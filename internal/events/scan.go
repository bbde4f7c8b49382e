package events

// Multi-matcher window scan (DESIGN.md §10).
//
// The batched generate stage evaluates every pending request of one device in
// a single pass over the device's window records: instead of Q compiled-
// selector scans re-reading the same arena spans, one traversal tests each
// event against a bank of Matcher lanes. Events dispatch to lanes by the
// event's interned advertiser ID through a dense advertiser→lanes table
// (advertiser symbols are small intern-table indices, so the table is a flat
// offset array built by counting sort), making per-event cost O(1) plus the
// lanes that actually share the event's advertiser — independent of querier
// count, which is what makes the per-day super-batch cheaper than Q
// independent scans.
//
// Each lane owns its selection output: a private arena so a lane's selected
// events stay contiguous per epoch even though the traversal interleaves
// lanes, plus the same span/alias discipline as the single-matcher path
// (core's selectWindow) — full-match epochs alias the store's arena,
// sub-slices are taken only after the lane's arena stops growing. Per lane,
// the produced slices are identical, element for element and aliasing
// decision for aliasing decision, to a Matcher.Match loop over the lane's own
// window; the property suite in scan_test.go holds the two paths equal.

// ScanLane is one compiled selection in a multi-matcher window scan: the
// compiled matcher, the lane's epoch window, and the caller's output slots.
// The unexported fields are the lane's reusable selection state; zero-value
// lanes are ready for use and callers reuse the same lane structs (arena
// capacity included) across scans.
type ScanLane struct {
	// Matcher is the lane's compiled relevance predicate. It must have been
	// compiled by the same database the scan runs against.
	Matcher Matcher
	// First and Last delimit the lane's epoch window [First, Last].
	First, Last Epoch
	// Out receives the lane's per-epoch relevant-event slices: Out[i] is
	// epoch First+i's selection (nil when nothing matched). It must be
	// pre-sized to Last-First+1 entries; ScanWindow fills it in place.
	// Entries alias either the database or the lane's internal arena and are
	// valid until the lane's next scan.
	Out [][]Event

	arena   []Event
	spans   [][2]int
	cur     Epoch
	start   int
	matched int
}

// closeSpan seals the lane's open epoch, if any: the record is aliased when
// every one of its events matched (the arena space is returned), otherwise the
// span of arena entries accumulated since the epoch opened is recorded. Safe
// because arenas are lane-private — nothing was appended for a later epoch yet.
func (ln *ScanLane) closeSpan(views []EventView, uf Epoch) {
	if ln.matched == 0 {
		return
	}
	i := int(ln.cur - ln.First)
	if ln.matched == views[ln.cur-uf].Len() {
		ln.arena = ln.arena[:ln.start]
		ln.spans[i] = [2]int{scanAlias, int(ln.cur - uf)}
		return
	}
	ln.spans[i] = [2]int{ln.start, len(ln.arena)}
}

// laneRef is the dispatch table entry: one non-degenerate lane keyed by its
// matcher's interned advertiser ID.
type laneRef struct {
	adv  uint32
	lane int32
}

// scanAlias marks a lane epoch whose events all matched; the selection then
// aliases the store's record instead of an arena copy (the span's second
// element holds the view index to alias).
const scanAlias = -1

// laneHot is one dispatch-table entry: the lane's match-relevant state packed
// contiguously so the per-event test touches one small struct instead of
// chasing into the full ScanLane. The camps slow path (multi-campaign
// selectors) indirects through lane.
type laneHot struct {
	first, last       Epoch
	firstDay, lastDay int32
	camp              uint32
	lane              int32
	anyCamp           bool
	hasCamps          bool
}

// MultiScan is the reusable workspace of ScanWindow: the union-window view
// buffer and the advertiser dispatch table. One MultiScan serves one
// goroutine at a time; the zero value is ready for use.
type MultiScan struct {
	views []EventView
	byAdv []laneRef
	// starts/hot are the dense dispatch table: hot[starts[a]:starts[a+1]]
	// holds the lanes (in lane order) whose matcher is keyed to interned
	// advertiser a. cursor is the counting sort's scatter scratch.
	starts []int32
	cursor []int32
	hot    []laneHot
}

// growI32 resizes a reusable int32 slice to n zeroed entries.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// ScanWindow runs every lane's compiled selection over device d in one
// traversal of the union of the lanes' epoch windows. Each lane's Out is
// filled exactly as a per-lane Matcher.Match scan over [lane.First,
// lane.Last] would fill it: same slices, same store aliasing for full-match
// epochs, nil for empty selections. Lanes whose matcher can match nothing
// are filled with nil without touching the store (the zero-loss shortcut of
// the single-matcher path).
//
// Runs under the store's usual read discipline; the matchers must have been
// compiled by db.
func (ms *MultiScan) ScanWindow(db *Database, d DeviceID, lanes []ScanLane) {
	// Pass 1: reset lanes, shortcut degenerate matchers, build the dispatch
	// table, and accumulate the union window over the lanes that scan.
	var uf, ul Epoch
	ms.byAdv = ms.byAdv[:0]
	for li := range lanes {
		ln := &lanes[li]
		k := int(ln.Last-ln.First) + 1
		_ = ln.Out[:k]
		ln.arena = ln.arena[:0]
		ln.spans = ln.spans[:0]
		if ln.Matcher.MatchesNone() {
			for i := 0; i < k; i++ {
				ln.Out[i] = nil
			}
			continue
		}
		if len(ms.byAdv) == 0 {
			uf, ul = ln.First, ln.Last
		} else {
			if ln.First < uf {
				uf = ln.First
			}
			if ln.Last > ul {
				ul = ln.Last
			}
		}
		ms.byAdv = append(ms.byAdv, laneRef{adv: ln.Matcher.adv, lane: int32(li)})
	}
	if len(ms.byAdv) == 0 {
		return
	}
	// Build the dense dispatch table by counting sort over the lanes'
	// advertiser symbols (intern-table indices, so the offset array is small
	// and the scatter is stable in lane order).
	maxAdv := uint32(0)
	for _, lr := range ms.byAdv {
		if lr.adv > maxAdv {
			maxAdv = lr.adv
		}
	}
	nAdv := int(maxAdv) + 1
	ms.starts = growI32(ms.starts, nAdv+1)
	for _, lr := range ms.byAdv {
		ms.starts[lr.adv+1]++
	}
	for a := 0; a < nAdv; a++ {
		ms.starts[a+1] += ms.starts[a]
	}
	ms.cursor = growI32(ms.cursor, nAdv)
	copy(ms.cursor, ms.starts[:nAdv])
	if cap(ms.hot) < len(ms.byAdv) {
		ms.hot = make([]laneHot, len(ms.byAdv))
	} else {
		ms.hot = ms.hot[:len(ms.byAdv)]
	}
	for _, lr := range ms.byAdv {
		ln := &lanes[lr.lane]
		m := &ln.Matcher
		ms.hot[ms.cursor[lr.adv]] = laneHot{
			first: ln.First, last: ln.Last,
			firstDay: m.firstDay, lastDay: m.lastDay,
			camp: m.camp, lane: lr.lane,
			anyCamp: m.anyCamp, hasCamps: len(m.camps) > 0,
		}
		ms.cursor[lr.adv]++
		// Per-lane selection bookkeeping: spans direct-indexed by window
		// slot, zeroed ({0,0} reads as "nothing matched"); cur marks the
		// lane's open epoch — none yet.
		k := int(ln.Last-ln.First) + 1
		if cap(ln.spans) < k {
			ln.spans = make([][2]int, k)
		} else {
			ln.spans = ln.spans[:k]
			clear(ln.spans)
		}
		ln.cur = uf - 1
		ln.matched = 0
	}

	// Pass 2: one view fetch for the union window, then one event traversal.
	// Per event, the lane bank is entered by advertiser ID, so lanes that
	// cannot match the event (different advertiser — the overwhelmingly
	// common case with many queriers) are never tested at all. A lane does
	// per-epoch work only for epochs in which it actually matches something:
	// its first match of an epoch seals the previous epoch's span (closeSpan)
	// and opens a new one; untouched epochs keep their zeroed span.
	ms.views = db.WindowViewsInto(ms.views, d, uf, ul)
	views := ms.views
	starts := ms.starts
	hot := ms.hot
	for e := uf; e <= ul; e++ {
		v := views[e-uf]
		n := v.Len()
		if n == 0 {
			continue
		}
		evs := v.evs
		keys := v.keys
		for i := 0; i < n; i++ {
			key := keys[i]
			if key.kind != uint8(KindImpression) {
				continue
			}
			a := int(key.adv)
			if a >= nAdv {
				continue
			}
			lo, hi := starts[a], starts[a+1]
			for j := lo; j < hi; j++ {
				h := &hot[j]
				// Campaign first: with per-advertiser campaign fan-out it is
				// by far the most selective predicate, so most lane tests end
				// on this one compare.
				if !h.anyCamp && key.camp != h.camp {
					if !h.hasCamps || !matchCamps(lanes[h.lane].Matcher.camps, key.camp) {
						continue
					}
				}
				if e < h.first || e > h.last {
					continue
				}
				if key.day < h.firstDay || key.day > h.lastDay {
					continue
				}
				ln := &lanes[h.lane]
				if ln.cur != e {
					ln.closeSpan(views, uf)
					ln.cur = e
					ln.start = len(ln.arena)
					ln.matched = 0
				}
				ln.arena = append(ln.arena, evs[i])
				ln.matched++
			}
		}
	}

	// Pass 3: seal the still-open spans; the arenas have stopped growing, so
	// resolve spans to stable sub-slices, exactly as the single-matcher path
	// does.
	for _, lr := range ms.byAdv {
		ln := &lanes[lr.lane]
		ln.closeSpan(views, uf)
		for i, sp := range ln.spans {
			switch {
			case sp[0] == scanAlias:
				ln.Out[i] = views[sp[1]].evs
			case sp[0] == sp[1]:
				ln.Out[i] = nil // nothing relevant: the zero-loss signal
			default:
				ln.Out[i] = ln.arena[sp[0]:sp[1]:sp[1]]
			}
		}
	}
}

// matchCamps is the multi-campaign slow path of the per-event test.
func matchCamps(camps []uint32, camp uint32) bool {
	for _, c := range camps {
		if camp == c {
			return true
		}
	}
	return false
}
