package events

// Window selection (DESIGN.md §10).
//
// Every report a device answers starts the same way: the events of each
// window epoch that the request's selector finds relevant. scan below is the
// one implementation of that selection — core's report path and the
// benchmark's scan probe both reach it — so the arena, span and aliasing
// bookkeeping lives in exactly one place.

// ScanLane is one window selection: the compiled matcher, the epoch window,
// and the caller's output slots. The unexported fields are the lane's
// reusable selection state; a zero-value lane is ready for use, and callers
// reuse the same lane (arena capacity included) across scans.
type ScanLane struct {
	// Matcher is the lane's compiled relevance predicate. It must have been
	// compiled by the same database the scan runs against.
	Matcher Matcher
	// First and Last delimit the lane's epoch window [First, Last].
	First, Last Epoch
	// Out receives the lane's per-epoch relevant-event slices: Out[i] is
	// epoch First+i's selection (nil when nothing matched). It must hold at
	// least Last-First+1 entries; the scan fills them in place. Entries
	// alias either the database or the lane's internal arena and are valid
	// until the lane's next scan.
	Out [][]Event

	arena []Event
	spans [][2]int
}

// scanAlias marks a window epoch whose events all matched; the selection
// then aliases the store's record instead of an arena copy.
const scanAlias = -1

// MultiScan is the reusable window-view buffer of ScanWindow and Select. One
// MultiScan serves one goroutine at a time; the zero value is ready for use.
type MultiScan struct {
	views []EventView
}

// ScanWindow runs each lane's compiled selection over device d's records in
// its epoch window, filling the lane's Out. Lanes whose matcher can match
// nothing are filled with nil without touching the store.
//
// Runs under the store's usual read discipline; the matchers must have been
// compiled by db.
func (ms *MultiScan) ScanWindow(db *Database, d DeviceID, lanes []ScanLane) {
	for i := range lanes {
		ms.scan(db, d, &lanes[i], nil)
	}
}

// Select fills ln.Out with device d's events relevant to sel over the lane's
// window: sel is compiled against db into ln.Matcher when it is one of the
// built-in forms, and every event is tested with sel.Relevant otherwise
// (SelectorFunc and other opaque selectors). Same read discipline as
// ScanWindow.
func (ms *MultiScan) Select(db *Database, d DeviceID, ln *ScanLane, sel Selector) {
	if m, ok := db.Compile(sel); ok {
		ln.Matcher, sel = m, nil
	}
	ms.scan(db, d, ln, sel)
}

// scan is the window selection: ln.Out[i] receives the events of device d's
// record at epoch ln.First+i that ln.Matcher matches or, when rel is
// non-nil, that rel.Relevant accepts. A record whose events all match is
// aliased, not copied. Partial selections are copied into the lane's arena
// and sliced out only once it has stopped growing, so no selection is
// invalidated by a later reallocation. An empty selection is nil: the
// zero-loss signal.
func (ms *MultiScan) scan(db *Database, d DeviceID, ln *ScanLane, rel Selector) {
	out := ln.Out[:int(ln.Last-ln.First)+1]
	m := ln.Matcher
	if rel == nil && m.none {
		clear(out) // decided without touching the store
		return
	}
	ms.views = db.WindowViewsInto(ms.views, d, ln.First, ln.Last)
	arena, spans := ln.arena[:0], ln.spans[:0]
	for _, v := range ms.views {
		start := len(arena)
		for i := range v.evs {
			if rel == nil && m.Match(v, i) || rel != nil && rel.Relevant(v.evs[i]) {
				arena = append(arena, v.evs[i])
			}
		}
		if n := len(arena) - start; n > 0 && n == len(v.evs) {
			arena, start = arena[:start], scanAlias
		}
		spans = append(spans, [2]int{start, len(arena)})
	}
	for i, sp := range spans {
		switch {
		case sp[0] == scanAlias:
			out[i] = ms.views[i].evs
		case sp[0] == sp[1]:
			out[i] = nil
		default:
			out[i] = arena[sp[0]:sp[1]:sp[1]]
		}
	}
	ln.arena, ln.spans = arena, spans
}
