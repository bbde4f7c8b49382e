package events

import (
	"cmp"
	"slices"
	"sort"
)

// DeviceEpoch is a device-epoch record x = (d, e, F): the events F logged on
// device d during epoch e. Events are kept sorted by (Day, ID) so that
// recency-based attribution logics are deterministic.
type DeviceEpoch struct {
	Device DeviceID
	Epoch  Epoch
	Events []Event
}

// Database is the paper's database D: a set of device-epoch records in
// which each (device, epoch) pair appears at most once. It is the
// simulator's stand-in for the union of all on-device event stores; the
// on-device engine only ever reads its own device's rows, preserving the
// paper's trust model.
//
// A Database comes in one of two forms. NewDatabase returns a mutable store
// segmented by epoch: each segment is an arena of event and scan-key chunks,
// a device's record is a pointer-free region of it, Record appends into that
// region (interning the scan-key column as it goes — see columnar.go), and
// EvictBefore reclaims by dropping whole epoch segments, O(1) per evicted
// epoch. No reader or writer may run concurrently with either, but
// concurrent *read-only* phases are fine as long as they never overlap a
// mutation — the streaming service relies on exactly this, alternating a
// single-writer ingest phase with a fan-out read phase on its day clock.
//
// NewFrozen builds the other form from a batch of events: one contiguous
// columnar arena — events, scan keys, and per-(device, epoch) {off, len}
// spans in a handful of flat allocations — immutable and safe for any number
// of concurrent readers with no phase discipline at all (the batch fleet
// engine reads it from every worker). EpochEvents on the report hot path
// becomes one map lookup plus a bounds-checked span index.
type Database struct {
	epochs map[Epoch]*epochSegment // mutable form; nil when frozen
	col    *colStore               // frozen form; nil when mutable
	intern intern
	nextID EventID
	// trackDirty makes Record list each touched record's device on its
	// epoch segment until DrainDirty collects it — the incremental
	// checkpointer's record-level dirty set. Off by default, so the
	// streaming ingest path pays nothing unless a delta can be captured.
	trackDirty bool
}

// DeviceEpochKey identifies one device-epoch record in the dirty set.
type DeviceEpochKey struct {
	Device DeviceID
	Epoch  Epoch
}

// Compare orders keys by (device, epoch) — the order every snapshot section
// is written and merged in.
func (k DeviceEpochKey) Compare(o DeviceEpochKey) int {
	if c := cmp.Compare(k.Device, o.Device); c != 0 {
		return c
	}
	return cmp.Compare(k.Epoch, o.Epoch)
}

// TrackDirty arms (on) or disarms record-level dirty tracking and empties
// the set either way: while armed, every Record marks its (device, epoch)
// key until DrainDirty collects it. Only meaningful on the mutable store.
func (db *Database) TrackDirty(on bool) {
	db.trackDirty = on
	for _, seg := range db.epochs {
		seg.dirty = nil
	}
}

// DrainDirty returns the keys dirtied since the last drain, sorted by
// (device, epoch) for deterministic serialization, and resets the set: each
// dirty segment's devices are sorted and deduplicated, then the segments —
// in epoch order, rarely more than the two a snapshot cadence spans — are
// merged by device. An evicted segment took its list with it, so every
// returned key is live.
func (db *Database) DrainDirty() []DeviceEpochKey {
	var epochs []Epoch
	for e, seg := range db.epochs {
		if len(seg.dirty) > 0 {
			epochs = append(epochs, e)
		}
	}
	slices.Sort(epochs)
	lists := make([][]DeviceID, len(epochs))
	for i, e := range epochs {
		seg := db.epochs[e]
		slices.Sort(seg.dirty)
		lists[i], seg.dirty = slices.Compact(seg.dirty), nil
	}
	var keys []DeviceEpochKey
	for {
		win := -1
		for i, l := range lists {
			if len(l) > 0 && (win < 0 || l[0] < lists[win][0]) {
				win = i // ties go to the earlier epoch
			}
		}
		if win < 0 {
			return keys
		}
		keys = append(keys, DeviceEpochKey{lists[win][0], epochs[win]})
		lists[win] = lists[win][1:]
	}
}

// Chunk sizes of an epoch segment's arena. A segment's chunks double from
// firstChunk up to maxChunk slots, so an epoch with a handful of events costs
// one small chunk; a region larger than maxChunk gets a chunk of its own.
const (
	firstChunk = 16
	maxChunk   = 2048
)

// epochSegment holds one epoch's device records — the retention unit: the
// streaming service's horizon advance drops segments whole. The segment is
// an arena: parallel chunks of events and scan keys, carved front to back
// into regions. A device's record is one region, which moves to a fresh
// region of twice the capacity when it fills; the region it left stays
// carved until the segment is dropped, so a record wastes at most the slots
// it holds. The map values are pointer-free, so the collector never scans
// the map, and a new record allocates nothing of its own.
type epochSegment struct {
	byDevice map[DeviceID]region
	evs      [][]Event // chunks, each fully sized
	keys     [][]evKey // parallel to evs
	tail     uint32    // slots carved from the last chunk
	// dirty lists, while tracking is armed, the device of every Record into
	// this segment since the last DrainDirty, repeats included.
	dirty []DeviceID
}

// region is one device-epoch record in its segment's arena: n events in
// (Day, ID) order at evs[chunk][off:off+n], with their parallel scan keys,
// and room for cap.
type region struct {
	chunk, off, n, cap uint32
}

// view returns r's events and keys, capped at their length so that a
// caller's append reallocates instead of writing into a neighbour.
func (s *epochSegment) view(r region) ([]Event, []evKey) {
	end := r.off + r.n
	return s.evs[r.chunk][r.off:end:end], s.keys[r.chunk][r.off:end:end]
}

// carve takes c free slots from the arena, starting a new chunk when the
// last one has too little room left.
func (s *epochSegment) carve(c uint32) region {
	last := len(s.evs) - 1
	if last < 0 || uint32(len(s.evs[last]))-s.tail < c {
		size := uint32(firstChunk)
		if last >= 0 {
			size = min(2*uint32(len(s.evs[last])), maxChunk)
		}
		size = max(size, c)
		s.evs = append(s.evs, make([]Event, size))
		s.keys = append(s.keys, make([]evKey, size))
		s.tail = 0
		last++
	}
	r := region{chunk: uint32(last), off: s.tail, cap: c}
	s.tail += c
	return r
}

// grow moves r's events and keys into a fresh region of twice its capacity.
func (s *epochSegment) grow(r region) region {
	nr := s.carve(max(2*r.cap, 1))
	nr.n = r.n
	copy(s.evs[nr.chunk][nr.off:nr.off+r.n], s.evs[r.chunk][r.off:r.off+r.n])
	copy(s.keys[nr.chunk][nr.off:nr.off+r.n], s.keys[r.chunk][r.off:r.off+r.n])
	return nr
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{epochs: make(map[Epoch]*epochSegment), intern: newIntern()}
}

// NextEventID mints a fresh unique event identifier.
func (db *Database) NextEventID() EventID {
	db.nextID++
	return db.nextID
}

// Record appends an event to the device-epoch record for (ev.Device, epoch).
// Events within an epoch are kept in (Day, ID) order; the append-at-end case
// (datasets are generated in time order) is O(1), and an out-of-order event
// finds its slot by binary search and shifts the record's tail within its
// region — O(log n) compares plus one memmove. Equal keys keep arrival
// order. A full region first moves to one of twice the capacity.
func (db *Database) Record(epoch Epoch, ev Event) {
	if db.col != nil {
		panic("events: Record on frozen database")
	}
	seg := db.segment(epoch)
	r := seg.byDevice[ev.Device]
	if r.n == r.cap {
		r = seg.grow(r)
	}
	evs := seg.evs[r.chunk][r.off : r.off+r.n+1]
	keys := seg.keys[r.chunk][r.off : r.off+r.n+1]
	i := int(r.n)
	if i > 0 && ev.Before(evs[i-1]) {
		i = sort.Search(i, func(j int) bool { return ev.Before(evs[j]) })
		copy(evs[i+1:], evs[i:r.n])
		copy(keys[i+1:], keys[i:r.n])
	}
	evs[i], keys[i] = ev, db.intern.keyOf(ev)
	r.n++
	seg.byDevice[ev.Device] = r
	if db.trackDirty {
		seg.dirty = append(seg.dirty, ev.Device)
	}
}

// segment returns (creating if needed) the epoch's segment. Caller has
// checked the phase.
func (db *Database) segment(epoch Epoch) *epochSegment {
	seg := db.epochs[epoch]
	if seg == nil {
		seg = &epochSegment{byDevice: make(map[DeviceID]region)}
		db.epochs[epoch] = seg
	}
	return seg
}

// EvictBefore removes every device-epoch record with epoch < first,
// releasing the events' memory. It is the streaming ingestion's retention
// primitive: a day-ordered event stream never revisits old epochs, and once
// no in-flight query window can reach below first, those records are dead
// weight. The epoch-segmented layout makes this a map sweep that drops each
// evicted epoch's whole segment at once — O(resident epochs) per call, not
// O(devices × epochs). Only valid on the mutable store — a frozen database
// is immutable — and, like Record, not safe for concurrent use.
// It returns the number of device-epoch records removed.
func (db *Database) EvictBefore(first Epoch) int {
	if db.col != nil {
		panic("events: EvictBefore on frozen database")
	}
	removed := 0
	for e, seg := range db.epochs {
		if e < first {
			removed += len(seg.byDevice)
			delete(db.epochs, e)
		}
	}
	return removed
}

// EpochEvents returns the events of device d at epoch e (the paper's D^e_d),
// or nil when the device-epoch is empty. The returned slice is shared;
// callers must not modify it. On a frozen database this is one map lookup
// plus a span index into the arena — the hottest read in report generation.
func (db *Database) EpochEvents(d DeviceID, e Epoch) []Event {
	if db.col != nil {
		return db.col.epochEvents(d, e)
	}
	seg := db.epochs[e]
	if seg == nil {
		return nil
	}
	r, ok := seg.byDevice[d]
	if !ok {
		return nil
	}
	evs, _ := seg.view(r)
	return evs
}

// WindowEvents returns the per-epoch event sets of device d over the epoch
// window [first, last] (the paper's D^E_d), indexed by position in the
// window. Empty epochs yield nil entries; the result always has
// last-first+1 entries so callers can align it with EpochsIn(first, last).
func (db *Database) WindowEvents(d DeviceID, first, last Epoch) [][]Event {
	if last < first {
		return nil
	}
	return db.WindowEventsInto(nil, d, first, last)
}

// WindowEventsInto is WindowEvents writing into a reusable buffer: buf is
// resized (reallocating only when capacity is short) to last-first+1 entries
// and returned. The report hot path calls this once per conversion, so
// reusing one buffer per worker removes a per-report allocation. The entry
// slices are shared with the database; callers must not modify them.
func (db *Database) WindowEventsInto(buf [][]Event, d DeviceID, first, last Epoch) [][]Event {
	if last < first {
		return buf[:0]
	}
	k := int(last-first) + 1
	var out [][]Event
	if cap(buf) < k {
		out = make([][]Event, k)
	} else {
		out = buf[:k]
		for i := range out {
			out[i] = nil
		}
	}
	if db.col != nil {
		di, ok := db.col.dev[d]
		if !ok {
			return out
		}
		for e := first; e <= last; e++ {
			i := int64(e) - int64(di.first)
			if i < 0 || i >= int64(di.count) {
				continue
			}
			if sp := db.col.spans[int64(di.base)+i]; sp.n > 0 {
				out[e-first] = db.col.evs[sp.off : sp.off+sp.n : sp.off+sp.n]
			}
		}
		return out
	}
	for e := first; e <= last; e++ {
		if seg := db.epochs[e]; seg != nil {
			if r, ok := seg.byDevice[d]; ok {
				out[e-first], _ = seg.view(r)
			}
		}
	}
	return out
}

// Devices returns all device IDs present in the database, in ascending
// order (deterministic iteration for experiments). On a frozen database
// this is a copy of the precompiled device list.
func (db *Database) Devices() []DeviceID {
	if db.col != nil {
		return slices.Clone(db.col.devs)
	}
	seen := make(map[DeviceID]struct{})
	for _, seg := range db.epochs {
		for d := range seg.byDevice {
			seen[d] = struct{}{}
		}
	}
	out := make([]DeviceID, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// Keys returns every live device-epoch record's key in (device, epoch)
// order — the full-snapshot counterpart of DrainDirty. Mutable store only.
func (db *Database) Keys() []DeviceEpochKey {
	keys := make([]DeviceEpochKey, 0, db.NumRecords())
	for e, seg := range db.epochs {
		for d := range seg.byDevice {
			keys = append(keys, DeviceEpochKey{d, e})
		}
	}
	slices.SortFunc(keys, DeviceEpochKey.Compare)
	return keys
}

// DeviceEpochs returns the populated epochs of a device in ascending order.
func (db *Database) DeviceEpochs(d DeviceID) []Epoch {
	if db.col != nil {
		di, ok := db.col.dev[d]
		if !ok {
			return nil
		}
		var out []Epoch
		for i := uint32(0); i < di.count; i++ {
			if db.col.spans[di.base+i].n > 0 {
				out = append(out, di.first+Epoch(i))
			}
		}
		return out
	}
	var out []Epoch
	for e, seg := range db.epochs {
		if _, ok := seg.byDevice[d]; ok {
			out = append(out, e)
		}
	}
	if out == nil {
		return nil
	}
	slices.Sort(out)
	return out
}

// NumDevices returns the number of devices with at least one event.
func (db *Database) NumDevices() int {
	if db.col != nil {
		return len(db.col.devs)
	}
	return len(db.Devices())
}

// NumRecords returns the number of non-empty device-epoch records |D|.
func (db *Database) NumRecords() int {
	if db.col != nil {
		return db.col.records
	}
	n := 0
	for _, seg := range db.epochs {
		n += len(seg.byDevice)
	}
	return n
}

// NumEvents returns the total number of events stored.
func (db *Database) NumEvents() int {
	if db.col != nil {
		return len(db.col.evs)
	}
	n := 0
	for _, seg := range db.epochs {
		for _, r := range seg.byDevice {
			n += int(r.n)
		}
	}
	return n
}
