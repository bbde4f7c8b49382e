package events

import (
	"cmp"
	"hash/maphash"
	"maps"
	"math/bits"
	"runtime"
	"slices"
	"sort"

	"repro/internal/fanout"
)

// Database is the paper's database D: a set of device-epoch records in
// which each (device, epoch) pair appears at most once. It is the
// simulator's stand-in for the union of all on-device event stores; the
// on-device engine only ever reads its own device's rows, preserving the
// paper's trust model.
//
// A Database is segmented by epoch — the paper's unit of budget and
// retention. Each segment is an arena of event and scan-key chunks, and a
// device's record is a pointer-free region of it. Record appends into that
// region (filling the scan-key column as it goes — see columnar.go),
// NewFrozen bulk-loads a whole batch into exact-sized regions, and
// EvictBefore reclaims by dropping whole epoch segments, O(1) per evicted
// epoch. Reads never write, so any number of readers may run at once, but
// none may overlap Record or EvictBefore — the streaming service relies on
// exactly this, alternating a single-writer ingest phase with a fan-out read
// phase on its day clock, and the batch engine loads once and then only reads.
type Database struct {
	segs []*epochSegment // ascending by epoch
	// advs and camps are the advertiser and campaign symbols the store
	// has held (see).
	advs, camps symSet
}

// DeviceEpochKey identifies one device-epoch record.
type DeviceEpochKey struct {
	Device DeviceID
	Epoch  Epoch
}

// Compare orders keys by (device, epoch) — the order a snapshot's key-sorted
// sections are written and merged in.
func (k DeviceEpochKey) Compare(o DeviceEpochKey) int {
	if c := cmp.Compare(k.Device, o.Device); c != 0 {
		return c
	}
	return cmp.Compare(k.Epoch, o.Epoch)
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
// it holds. Regions are pointer-free and so is the device index (regionIndex),
// so the collector never scans either, and a new record allocates nothing
// of its own.
type epochSegment struct {
	epoch    Epoch
	byDevice regionIndex
	evs      [][]Event // chunks, each fully sized
	keys     [][]evKey // parallel to evs
	tail     uint32    // slots carved from the last chunk
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
	return &Database{}
}

// NewFrozen bulk-loads a batch of day-stamped events into a new database —
// the batch engine's load path (stream.Engine.Replay). One pass notes every
// event's advertiser and campaign in the store's seen sets. One permutation
// into (device, day, ID, arrival) order (sortByDeviceDayID) makes every
// record a contiguous run, since epochs are monotone in days. A walk over
// the runs lists each epoch's records in device order and counts its
// events. Each epoch is then one task of a fan-out over GOMAXPROCS workers:
// it gets one chunk of exactly its event count and a device index sized to
// its record count, every record one exact region (cap == n), and writes
// only that segment, into the slot of db.segs its epoch order fixes — so the
// layout does not depend on the schedule. The result is an ordinary
// Database — Record and EvictBefore work on it — whose reads
// are indistinguishable from those of a store fed the same events by Record,
// for events in any order.
func NewFrozen(epochDays int, evs []Event) *Database {
	db := NewDatabase()
	for i := range evs {
		db.see(&evs[i])
	}
	idx, devs := sortByDeviceDayID(evs)
	epochs := make([]Epoch, len(evs)) // by input position
	for i := range evs {
		epochs[i] = EpochOfDay(evs[i].Day, epochDays)
	}
	type load struct {
		runs   [][2]int32 // each record's start in idx and length
		events int
	}
	loads := make(map[Epoch]*load)
	for i := 0; i < len(idx); {
		e := epochs[idx[i]]
		j := i + 1
		for j < len(idx) && devs[j] == devs[i] && epochs[idx[j]] == e {
			j++
		}
		l := loads[e]
		if l == nil {
			l = new(load)
			loads[e] = l
		}
		l.runs = append(l.runs, [2]int32{int32(i), int32(j - i)})
		l.events += j - i
		i = j
	}
	order := slices.Sorted(maps.Keys(loads))
	db.segs = make([]*epochSegment, len(order))
	fanout.Run(len(order), runtime.GOMAXPROCS(0), func(_, k int) {
		l := loads[order[k]]
		seg := &epochSegment{
			epoch:    order[k],
			byDevice: newRegionIndex(len(l.runs)),
			evs:      [][]Event{make([]Event, l.events)},
			keys:     [][]evKey{make([]evKey, l.events)},
		}
		out, keys := seg.evs[0], seg.keys[0]
		for _, run := range l.runs {
			r := region{off: seg.tail, n: uint32(run[1]), cap: uint32(run[1])}
			for k, x := range idx[run[0] : run[0]+run[1]] {
				out[r.off+uint32(k)], keys[r.off+uint32(k)] = evs[x], scanKey(&evs[x])
			}
			seg.byDevice.claim(out[r.off].Device).r = r
			seg.tail += r.n
		}
		db.segs[k] = seg
	})
	return db
}

// radixBits is the digit width of radixSortDevices' passes: a 2 048-entry
// count table, two passes for any device ID below 2^22.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// radixSortDevices stably sorts keys ascending with LSD radix passes of
// radixBits, only as many as the largest key needs, permuting vals (of
// len(keys); a zero-size element type carries nothing) alongside. It
// returns the sorted slices, which may be scratch buffers of its own
// rather than the ones passed in.
func radixSortDevices[V any](keys []DeviceID, vals []V) ([]DeviceID, []V) {
	var top DeviceID
	for _, k := range keys {
		top = max(top, k)
	}
	passes := (bits.Len64(uint64(top)) + radixBits - 1) / radixBits
	if passes == 0 {
		return keys, vals
	}
	keys2, vals2 := make([]DeviceID, len(keys)), make([]V, len(vals))
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
			keys2[j], vals2[j] = k, vals[i]
		}
		keys, keys2 = keys2, keys
		vals, vals2 = vals2, vals
	}
	return keys, vals
}

// sortByDeviceDayID returns the permutation of evs in (device, day, ID,
// arrival) order — NewFrozen's layout order — and the events' devices in
// that order. Epochs are monotone in days, so each device's records come
// out as contiguous epoch-ordered runs, and the arrival-index tiebreak makes
// the permutation equal to a stable (Day, ID) sort.
//
// It assumes nothing about the input order. A stable LSD radix sort on the
// device ID (radixSortDevices) groups the events by device in linear time,
// keeping each device's events in arrival order; each device's run is then
// sorted by (Day, ID, arrival). Runs are a few events long on the paper's
// traces, so the comparison sorts cost little even though generators emit
// events in ID order with random days. The runs are sorted by a fan-out
// over ranges of whole runs: each run's order is fixed by its own events,
// so the permutation does not depend on the schedule.
func sortByDeviceDayID(evs []Event) (idx []int32, devs []DeviceID) {
	n := len(evs)
	idx = make([]int32, n)
	devs = make([]DeviceID, n)
	for i := range evs {
		idx[i] = int32(i)
		devs[i] = evs[i].Device
	}
	devs, idx = radixSortDevices(devs, idx)
	byDayID := func(a, b int32) int {
		ea, eb := &evs[a], &evs[b]
		return cmp.Or(cmp.Compare(ea.Day, eb.Day), cmp.Compare(ea.ID, eb.ID), cmp.Compare(a, b))
	}
	workers := runtime.GOMAXPROCS(0)
	ranges := min(4*workers, n/4096+1) // a range of a few thousand events at least
	fanout.Run(ranges, workers, func(_, r int) {
		// Range r covers the runs that start in [r·n/ranges, (r+1)·n/ranges).
		start := func(r int) int {
			i := r * n / ranges
			for i > 0 && i < n && devs[i] == devs[i-1] {
				i++
			}
			return i
		}
		for i, end := start(r), start(r+1); i < end; {
			j := i + 1
			for j < n && devs[j] == devs[i] {
				j++
			}
			if j-i > 1 {
				slices.SortFunc(idx[i:j], byDayID)
			}
			i = j
		}
	})
	return idx, devs
}

// Record appends an event to the device-epoch record for (ev.Device, epoch).
// Events within an epoch are kept in (Day, ID) order; the append-at-end case
// (datasets are generated in time order) is O(1), and an out-of-order event
// finds its slot by binary search and shifts the record's tail within its
// region — O(log n) compares plus one memmove. Equal keys keep arrival
// order. A full region first moves to one of twice the capacity.
func (db *Database) Record(epoch Epoch, ev Event) {
	seg := db.segment(epoch)
	slot := seg.byDevice.claim(ev.Device)
	r := slot.r
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
	db.see(&ev)
	evs[i], keys[i] = ev, scanKey(&ev)
	r.n++
	slot.r = r
}

// find returns the position of epoch e's segment in db.segs, or where it
// would go, and whether it is there: a binary search over the resident
// epochs, a handful on the streaming path.
func (db *Database) find(e Epoch) (int, bool) {
	return slices.BinarySearchFunc(db.segs, e, func(s *epochSegment, e Epoch) int { return cmp.Compare(s.epoch, e) })
}

// segment returns (creating if needed) the epoch's segment.
func (db *Database) segment(epoch Epoch) *epochSegment {
	i, ok := db.find(epoch)
	if !ok {
		db.segs = slices.Insert(db.segs, i, &epochSegment{epoch: epoch, byDevice: newRegionIndex(0)})
	}
	return db.segs[i]
}

// EvictBefore removes every device-epoch record with epoch < first,
// releasing the events' memory. It is the streaming ingestion's retention
// primitive: a day-ordered event stream never revisits old epochs, and once
// no in-flight query window can reach below first, those records are dead
// weight. The epoch-segmented layout makes this drop each evicted epoch's
// whole segment at once — O(resident epochs) per call, not O(devices ×
// epochs). Like Record, it is not safe for concurrent use. It returns the
// number of device-epoch records removed.
func (db *Database) EvictBefore(first Epoch) int {
	i, _ := db.find(first)
	removed := 0
	for _, seg := range db.segs[:i] {
		removed += seg.byDevice.n
	}
	db.segs = slices.Delete(db.segs, 0, i)
	return removed
}

// EpochEvents returns the events of device d at epoch e (the paper's D^e_d),
// or nil when the device-epoch is empty. The returned slice is shared;
// callers must not modify it.
func (db *Database) EpochEvents(d DeviceID, e Epoch) []Event {
	var buf [1]EventView
	return db.WindowViewsInto(buf[:0], d, e, e)[0].evs
}

// Keys returns every live device-epoch record's key in (epoch, device)
// order — the order a full snapshot logs the store in, so its log's days
// never decrease from one record to the next.
func (db *Database) Keys() []DeviceEpochKey {
	keys := make([]DeviceEpochKey, 0, db.NumRecords())
	for _, seg := range db.segs {
		from := len(keys)
		for d := range seg.byDevice.all {
			keys = append(keys, DeviceEpochKey{d, seg.epoch})
		}
		slices.SortFunc(keys[from:], DeviceEpochKey.Compare)
	}
	return keys
}

// NumRecords returns the number of non-empty device-epoch records |D|.
func (db *Database) NumRecords() int {
	n := 0
	for _, seg := range db.segs {
		n += seg.byDevice.n
	}
	return n
}

// regionIndex is an epoch segment's device → region index: open addressing
// with linear probing over a power-of-two array of slots, kept at most
// three-quarters full. Beside the slots, a byte per slot holds a tag from
// the device's hash (0 marks an empty slot), so a probe walks the small tag
// array and reads a slot only when its tag matches: an absent device — most
// epochs of a query window — usually costs no slot read at all. Nothing in
// the index is a pointer, so the collector never scans it. The hash is
// seeded per process, as Go's maps are, so a client cannot pick device IDs
// that collide without knowing the seed.
type regionIndex struct {
	tags  []uint8
	slots []regionSlot
	shift uint8 // 64 - log2(len(slots))
	n     int   // occupied slots
}

type regionSlot struct {
	dev DeviceID
	r   region
}

// indexSeed keys the index's hash, drawn once per process.
var indexSeed = maphash.Comparable(maphash.MakeSeed(), 0)

// newRegionIndex returns an index with room for n records before it grows.
func newRegionIndex(n int) regionIndex {
	bits := 3
	for 3<<bits < 4*n {
		bits++
	}
	return regionIndex{tags: make([]uint8, 1<<bits), slots: make([]regionSlot, 1<<bits), shift: uint8(64 - bits)}
}

// find returns the index of d's slot, or of the empty slot where d would
// go, and d's tag.
func (x *regionIndex) find(d DeviceID) (int, uint8) {
	hi, lo := bits.Mul64(uint64(d)^indexSeed, 0x9e3779b97f4a7c15)
	h := hi ^ lo
	tag := uint8(h) | 1 // the hash's low bits; never 0
	mask := len(x.tags) - 1
	for i := int(h >> x.shift); ; i = (i + 1) & mask {
		if t := x.tags[i]; t == 0 || t == tag && x.slots[i].dev == d {
			return i, tag
		}
	}
}

// get returns d's region; ok is false when d has no record.
func (x *regionIndex) get(d DeviceID) (r region, ok bool) {
	if i, _ := x.find(d); x.tags[i] != 0 {
		return x.slots[i].r, true
	}
	return region{}, false
}

// claim returns d's slot, taking an empty one for it when d has no record
// yet (doubling the index first if it would pass three-quarters full); the
// caller then stores d's region, which has room for an event, in it.
func (x *regionIndex) claim(d DeviceID) *regionSlot {
	if 4*(x.n+1) > 3*len(x.slots) {
		old := *x
		*x = newRegionIndex(2 * old.n)
		for dev, r := range old.all {
			x.claim(dev).r = r
		}
	}
	i, tag := x.find(d)
	if x.tags[i] == 0 {
		x.tags[i], x.slots[i].dev = tag, d
		x.n++
	}
	return &x.slots[i]
}

// all yields every record's device and region, in slot order.
func (x *regionIndex) all(yield func(DeviceID, region) bool) {
	for i, t := range x.tags {
		if t != 0 && !yield(x.slots[i].dev, x.slots[i].r) {
			return
		}
	}
}
