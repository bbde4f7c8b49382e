package core

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/events"
)

// Fleet is the device registry behind the workload engine: one Device per
// DeviceID, lazily created on first use. The paper's whole point is that
// budgeting runs independently on millions of devices, so a device costs
// what its own state needs and no more, and finding one takes no lock.
// Devices live by value in fleet-owned chunks that never move, each at an
// ordinal fixed by its creation; one open-addressing index (fleetIndex)
// maps IDs to ordinals. Readers probe the index without a lock, and
// GetOrCreate takes the fleet's one lock only to create a device.
//
// A fleet has two phases. While it generates reports its devices read the
// event store the fleet was built over; ReleaseStore ends that phase, and
// the fleet that remains is budget state only.
type Fleet struct {
	env deviceEnv // every device's

	mu     sync.Mutex // held to create a device
	index  atomic.Pointer[fleetIndex]
	chunks atomic.Pointer[[]*deviceChunk]
	// n is the number of devices created, ordinals [0, n). It is stored
	// after the device it counts is in place, so a reader that loads n
	// finds every device below it.
	n atomic.Uint32
}

// chunkBits sizes a chunk at 128 devices: 6 KiB, an allocation size class,
// so a chunk wastes nothing and a small fleet little.
const (
	chunkBits = 7
	chunkMask = 1<<chunkBits - 1
)

type deviceChunk [1 << chunkBits]Device

// NewFleet returns a fleet whose devices are created on first use as
// NewDevice(id, db, epsG, policy) would create them, but share one
// environment.
func NewFleet(db *events.Database, epsG float64, policy LossPolicy) *Fleet {
	f := &Fleet{env: *newEnv(db, epsG, policy)}
	f.index.Store(newFleetIndex(8))
	f.chunks.Store(new([]*deviceChunk))
	return f
}

// fleetIndex maps device IDs to ordinals: open addressing with linear
// probing over a power-of-two array of slots, kept at most three-quarters
// full, with a tag byte per slot from the ID's hash (0 marks an empty slot),
// so that a probe reads a device only when its tag matches — the shape of
// the event store's per-epoch index. The hash is seeded per process, as Go's
// maps are. Readers probe without a lock: under the fleet's lock,
// GetOrCreate stores a new device's ordinal and then its tag, both
// atomically, into the one empty slot it claims, and an index that would
// pass three-quarters full is replaced by a larger one, never rehashed in
// place. A reader holding a replaced index sees a correct subset of the
// fleet; a miss takes the lock and probes the current one.
type fleetIndex struct {
	tags  []atomic.Uint64 // slot i's tag is byte i%8 of word i/8
	slots []atomic.Uint32 // device ordinals
	shift uint8           // 64 - log2(len(slots))
}

// fleetSeed keys the index's hash, drawn once per process.
var fleetSeed = maphash.Comparable(maphash.MakeSeed(), 0)

// newFleetIndex returns an empty index of n slots, a power of two ≥ 8.
func newFleetIndex(n int) *fleetIndex {
	return &fleetIndex{
		tags:  make([]atomic.Uint64, n/8),
		slots: make([]atomic.Uint32, n),
		shift: uint8(64 - bits.TrailingZeros(uint(n))),
	}
}

// find returns id's device in x, or nil and the empty slot where id would
// go with its tag.
func (f *Fleet) find(x *fleetIndex, id events.DeviceID) (d *Device, slot int, tag uint64) {
	hi, lo := bits.Mul64(uint64(id)^fleetSeed, 0x9e3779b97f4a7c15)
	h := hi ^ lo
	tag = uint64(uint8(h) | 1) // the hash's low bits; never 0
	mask := len(x.slots) - 1
	for i := int(h >> x.shift); ; i = (i + 1) & mask {
		switch x.tags[i/8].Load() >> (i % 8 * 8) & 0xff {
		case 0:
			return nil, i, tag
		case tag:
			if d := f.device(x.slots[i].Load()); d.id == id {
				return d, i, tag
			}
		}
	}
}

// put fills x's empty slot i with ordinal o under tag: the ordinal first,
// so a reader that sees the tag finds it. Caller holds f.mu.
func (x *fleetIndex) put(i int, o uint32, tag uint64) {
	x.slots[i].Store(o)
	w := &x.tags[i/8]
	w.Store(w.Load() | tag<<(i%8*8))
}

// device returns the device at ordinal o, which a reader has found in the
// index or below n, so its chunk is published.
func (f *Fleet) device(o uint32) *Device {
	return &(*f.chunks.Load())[o>>chunkBits][o&chunkMask]
}

// GetOrCreate returns the device engine for id, creating it on first use.
// Safe for concurrent use; exactly one device is ever created per ID, and
// finding an existing one takes no lock. After ReleaseStore it still
// returns existing devices, and panics for an ID it would have to create.
func (f *Fleet) GetOrCreate(id events.DeviceID) *Device {
	if d := f.Get(id); d != nil {
		return d
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	x := f.index.Load()
	d, slot, tag := f.find(x, id)
	if d != nil {
		return d
	}
	if f.env.db == nil {
		panic(fmt.Sprintf("core: GetOrCreate(%d) on a fleet whose event store was released (Fleet.ReleaseStore)", id))
	}
	o := f.n.Load()
	if 4*(int(o)+1) > 3*len(x.slots) {
		x = newFleetIndex(2 * len(x.slots))
		for p := range o {
			_, i, t := f.find(x, f.device(p).id)
			x.put(i, p, t)
		}
		f.index.Store(x)
		_, slot, _ = f.find(x, id)
	}
	if o&chunkMask == 0 {
		// The directory grows in place while it has room: a reader's
		// copy never reaches past the chunks it was published with.
		chunks := append(*f.chunks.Load(), new(deviceChunk))
		f.chunks.Store(&chunks)
	}
	d = f.device(o)
	d.id, d.env = id, &f.env
	x.put(slot, o, tag)
	f.n.Store(o + 1)
	return d
}

// Get returns the device for id, or nil if it was never created. It takes
// no lock.
func (f *Fleet) Get(id events.DeviceID) *Device {
	d, _, _ := f.find(f.index.Load(), id)
	return d
}

// Len returns the number of devices created so far.
func (f *Fleet) Len() int { return int(f.n.Load()) }

// Range calls fn for every created device in ascending ID order, stopping
// early if fn returns false. The devices are listed up front, so fn may
// itself use the fleet.
func (f *Fleet) Range(fn func(*Device) bool) {
	n := f.n.Load()
	ds := make([]*Device, n)
	for o := range n {
		ds[o] = f.device(o)
	}
	slices.SortFunc(ds, func(a, b *Device) int { return cmp.Compare(a.id, b.id) })
	for _, d := range ds {
		if !fn(d) {
			return
		}
	}
}

// ReleaseStore ends the fleet's generation phase: the environment every
// device shares lets go of the event store, and every device's ledger gives
// back the headroom it kept for growth (privacy.Table.Trim). What remains
// is what Listing 1 keeps once the measurement is done, the per-(querier,
// epoch) filters, so a finished run holding the fleet no longer pins the
// events its reports were computed from. Get, Range, Len and every ledger
// read work as before; GetOrCreate of an unseen ID and either generate
// method of a released device panic. ReleaseStore must not run
// concurrently with report generation or device creation. Releasing twice
// is a no-op.
func (f *Fleet) ReleaseStore() {
	f.env.db = nil
	for o := range f.n.Load() {
		f.device(o).ledger.Trim()
	}
}
