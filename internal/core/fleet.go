package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/events"
)

// Fleet is the sharded device registry behind the workload engine: one
// *Device per DeviceID, lazily created on first use. The paper's whole point
// is that budgeting runs independently on millions of devices, so the
// registry is built for concurrent access — devices hash onto a power-of-two
// number of lock-striped shards, and GetOrCreate takes only the owning
// shard's lock (read-locked on the fast path).
//
// A fleet has two phases. While it generates reports its devices read the
// event store the fleet was built over; ReleaseStore ends that phase, and
// the fleet that remains is budget state only.
type Fleet struct {
	shards []fleetShard
	mask   uint64
	env    *deviceEnv // every device's
}

type fleetShard struct {
	mu      sync.RWMutex
	devices map[events.DeviceID]*Device
}

// NewFleet returns a fleet whose devices are created on first use as
// NewDevice(id, db, epsG, policy) would create them, but share one
// environment. shards is rounded up to a power of two; 0 selects a default
// sized to the machine's parallelism.
func NewFleet(shards int, db *events.Database, epsG float64, policy LossPolicy) *Fleet {
	env := newEnv(db, epsG, policy)
	if shards <= 0 {
		// Enough stripes that GOMAXPROCS workers rarely collide.
		shards = 8 * runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	f := &Fleet{
		shards: make([]fleetShard, n),
		mask:   uint64(n - 1),
		env:    env,
	}
	for i := range f.shards {
		f.shards[i].devices = make(map[events.DeviceID]*Device)
	}
	return f
}

// shard maps a device ID to its owning shard. IDs are often small and
// sequential (the simulator numbers devices densely), so the raw low bits
// would pile consecutive devices onto consecutive shards; the SplitMix64
// finalizer mixes all 64 bits first.
func (f *Fleet) shard(id events.DeviceID) *fleetShard {
	z := uint64(id)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return &f.shards[z&f.mask]
}

// GetOrCreate returns the device engine for id, creating it on first use.
// Safe for concurrent use; exactly one device is ever created per ID. After
// ReleaseStore it still returns existing devices, and panics for an ID it
// would have to create.
func (f *Fleet) GetOrCreate(id events.DeviceID) *Device {
	s := f.shard(id)
	s.mu.RLock()
	d := s.devices[id]
	s.mu.RUnlock()
	if d != nil {
		return d
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d = s.devices[id]; d == nil {
		if f.env.db == nil {
			panic(fmt.Sprintf("core: GetOrCreate(%d) on a fleet whose event store was released (Fleet.ReleaseStore)", id))
		}
		d = f.env.device(id)
		s.devices[id] = d
	}
	return d
}

// Get returns the device for id, or nil if it was never created.
func (f *Fleet) Get(id events.DeviceID) *Device {
	s := f.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.devices[id]
}

// Len returns the number of devices created so far.
func (f *Fleet) Len() int {
	n := 0
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.RLock()
		n += len(s.devices)
		s.mu.RUnlock()
	}
	return n
}

// Devices returns the IDs of all created devices in ascending order, the
// deterministic iteration order experiments need.
func (f *Fleet) Devices() []events.DeviceID {
	out := make([]events.DeviceID, 0, f.Len())
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.RLock()
		for id := range s.devices {
			out = append(out, id)
		}
		s.mu.RUnlock()
	}
	slices.Sort(out)
	return out
}

// Range calls fn for every created device in ascending ID order, stopping
// early if fn returns false. The snapshot of IDs is taken up front, so fn
// may itself use the fleet.
func (f *Fleet) Range(fn func(*Device) bool) {
	for _, id := range f.Devices() {
		if d := f.Get(id); d != nil {
			if !fn(d) {
				return
			}
		}
	}
}

// ReleaseStore ends the fleet's generation phase: the environment every
// device shares lets go of the event store. What remains is what Listing 1
// keeps once the measurement is done, the per-(querier, epoch) filters, so
// a finished run holding the fleet no longer pins the events its reports
// were computed from. Get, Range, Len, Devices and every ledger read work
// as before; GetOrCreate of an unseen ID and either generate method of a
// released device panic. ReleaseStore must not run concurrently with report
// generation or device creation. Releasing twice is a no-op.
func (f *Fleet) ReleaseStore() { f.env.db = nil }
