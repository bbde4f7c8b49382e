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
// segmented by epoch: Record appends into the owning segment's per-device
// record (interning the scan-key column as it goes — see columnar.go) and
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
	// dirty, when tracking is enabled, holds every (device, epoch) record
	// touched since the last DrainDirty — the incremental checkpointer's
	// record-level dirty set. nil when tracking is off, so the streaming
	// ingest path pays nothing by default.
	dirty map[DeviceEpochKey]struct{}
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

// TrackDirty enables record-level dirty tracking: from now on every Record
// marks its (device, epoch) key until DrainDirty collects it.
// Only meaningful on the mutable store.
func (db *Database) TrackDirty() {
	if db.dirty == nil {
		db.dirty = make(map[DeviceEpochKey]struct{})
	}
}

// DrainDirty returns the keys dirtied since the last drain, sorted by
// (device, epoch) for deterministic serialization, and resets the set.
// Records evicted since they were dirtied are already pruned (EvictBefore
// maintains the set), so every returned key is live.
func (db *Database) DrainDirty() []DeviceEpochKey {
	if len(db.dirty) == 0 {
		return nil
	}
	keys := make([]DeviceEpochKey, 0, len(db.dirty))
	for k := range db.dirty {
		keys = append(keys, k)
	}
	clear(db.dirty)
	slices.SortFunc(keys, DeviceEpochKey.Compare)
	return keys
}

// epochSegment holds one epoch's device records — the retention unit: the
// streaming service's horizon advance drops segments whole. Records are map
// values (slice headers, not pointers), so a record costs no allocation of
// its own.
type epochSegment struct {
	byDevice map[DeviceID]record
}

// record is one mutable device-epoch record: events in (Day, ID) order with
// their parallel scan keys.
type record struct {
	evs  []Event
	keys []evKey
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
// finds its slot by binary search instead of the old linear bubble — O(log n)
// compares plus one memmove, so a fully shuffled batch costs O(n log n)
// compares rather than O(n²).
func (db *Database) Record(epoch Epoch, ev Event) {
	if db.col != nil {
		panic("events: Record on frozen database")
	}
	seg := db.segment(epoch)
	rec := seg.byDevice[ev.Device]
	rec.insert(ev, &db.intern)
	seg.byDevice[ev.Device] = rec
	if db.dirty != nil {
		db.dirty[DeviceEpochKey{ev.Device, epoch}] = struct{}{}
	}
}

// segment returns (creating if needed) the epoch's segment. Caller has
// checked the phase.
func (db *Database) segment(epoch Epoch) *epochSegment {
	seg := db.epochs[epoch]
	if seg == nil {
		seg = &epochSegment{byDevice: make(map[DeviceID]record)}
		db.epochs[epoch] = seg
	}
	return seg
}

// insert places ev at its (Day, ID) position, maintaining the parallel key
// column. Equal keys keep arrival order, matching the old bubble's stability
// exactly.
func (r *record) insert(ev Event, in *intern) {
	n := len(r.evs)
	if n == 0 || !ev.Before(r.evs[n-1]) {
		r.evs = append(r.evs, ev)
		r.keys = append(r.keys, in.keyOf(ev))
		return
	}
	i := sort.Search(n, func(i int) bool { return ev.Before(r.evs[i]) })
	r.evs = slices.Insert(r.evs, i, ev)
	r.keys = slices.Insert(r.keys, i, in.keyOf(ev))
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
	for k := range db.dirty {
		if k.Epoch < first {
			delete(db.dirty, k)
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
	rec, ok := seg.byDevice[d]
	if !ok {
		return nil
	}
	return rec.evs
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
			if rec, ok := seg.byDevice[d]; ok {
				out[e-first] = rec.evs
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
		for _, rec := range seg.byDevice {
			n += len(rec.evs)
		}
	}
	return n
}
