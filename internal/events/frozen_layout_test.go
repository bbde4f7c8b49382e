package events

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// refSortByDeviceDayID is the comparison sort NewFrozen's layout order was
// first defined by, kept as the reference sortByDeviceDayID's radix passes
// are held to: the permutation of evs in (device, day, ID, arrival) order.
func refSortByDeviceDayID(evs []Event) []int32 {
	idx := make([]int32, len(evs))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		ea, eb := &evs[a], &evs[b]
		switch {
		case ea.Device != eb.Device:
			if ea.Device < eb.Device {
				return -1
			}
			return 1
		case ea.Day != eb.Day:
			if ea.Day < eb.Day {
				return -1
			}
			return 1
		case ea.ID != eb.ID:
			if ea.ID < eb.ID {
				return -1
			}
			return 1
		}
		return int(a - b) // arrival order for ties: a stable sort
	})
	return idx
}

// checkFrozenLayout holds NewFrozen over evs to the store the reference
// permutation lays out: the same device list, record count and event count,
// and the same events, in the same order, at every device × epoch of the
// trace's epoch range (one epoch of margin either side).
func checkFrozenLayout(t *testing.T, epochDays int, evs []Event) {
	t.Helper()
	var devs []DeviceID
	recs := make(map[DeviceEpochKey][]Event)
	lo, hi := Epoch(math.MaxInt32), Epoch(math.MinInt32)
	for _, i := range refSortByDeviceDayID(evs) {
		ev := evs[i]
		if len(devs) == 0 || devs[len(devs)-1] != ev.Device {
			devs = append(devs, ev.Device)
		}
		e := EpochOfDay(ev.Day, epochDays)
		lo, hi = min(lo, e), max(hi, e)
		k := DeviceEpochKey{ev.Device, e}
		recs[k] = append(recs[k], ev)
	}

	db := NewFrozen(epochDays, evs)
	if got := db.Devices(); !slices.Equal(got, devs) {
		t.Fatalf("Devices() = %v, want %v", got, devs)
	}
	if got := db.NumRecords(); got != len(recs) {
		t.Fatalf("NumRecords() = %d, want %d", got, len(recs))
	}
	if got := db.NumEvents(); got != len(evs) {
		t.Fatalf("NumEvents() = %d, want %d", got, len(evs))
	}
	for _, d := range devs {
		for e := lo - 1; e <= hi+1; e++ {
			if got, want := db.EpochEvents(d, e), recs[DeviceEpochKey{d, e}]; !reflect.DeepEqual(got, want) {
				t.Fatalf("EpochEvents(%d, %d):\n got %v\nwant %v", d, e, got, want)
			}
		}
	}
}

// layoutEvent is one event of the layout tests; Value records the arrival
// index, so two events with equal (Device, Day, ID) still differ and an
// arrival-order mistake shows in EpochEvents.
func layoutEvent(arrival int, dev DeviceID, day int, id EventID) Event {
	return Event{ID: id, Kind: KindImpression, Device: dev, Day: day,
		Advertiser: Intern("a.example"), Campaign: Intern("c"), Value: float64(arrival)}
}

// frozenLayoutCase is one trace of the bulk-load layout tests.
type frozenLayoutCase struct {
	name      string
	epochDays int
	evs       []Event
}

// frozenLayoutCases are the inputs the generator-shaped property tests do
// not reach: device IDs spanning every radix digit up to math.MaxUint64,
// duplicate (Day, ID) pairs, negative days, one hot device, and input in ID
// order with random days as well as in (Day, ID) order.
func frozenLayoutCases() []frozenLayoutCase {
	edgeDevs := []DeviceID{0, 1<<11 - 1, 1 << 11, 1<<11 + 1, 1<<22 + 1, 1 << 63, math.MaxUint64}
	// trace draws n events in ID order (IDs 1..n) from the device and day
	// distributions; with dup > 0, about one event in dup repeats the
	// (Device, Day, ID) of an earlier event.
	trace := func(seed int64, n, dup int, dev func(*rand.Rand) DeviceID, day func(*rand.Rand) int) []Event {
		rng := rand.New(rand.NewSource(seed))
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = layoutEvent(i, dev(rng), day(rng), EventID(i+1))
			if dup > 0 && i > 0 && rng.Intn(dup) == 0 {
				j := rng.Intn(i)
				evs[i].Device, evs[i].Day, evs[i].ID = evs[j].Device, evs[j].Day, evs[j].ID
			}
		}
		return evs
	}
	edge := func(r *rand.Rand) DeviceID { return edgeDevs[r.Intn(len(edgeDevs))] }
	criteoDevs := func(r *rand.Rand) DeviceID { return DeviceID(1 + r.Intn(120_000)) }
	days := func(r *rand.Rand) int { return r.Intn(90) }
	negDays := func(r *rand.Rand) int { return r.Intn(60) - 45 }
	hot := func(r *rand.Rand) DeviceID {
		if r.Intn(4) != 0 {
			return 1<<11 + 5
		}
		return DeviceID(r.Intn(1 << 13))
	}
	dayIDOrder := func(evs []Event) []Event {
		slices.SortStableFunc(evs, func(a, b Event) int {
			if a.Day != b.Day {
				return a.Day - b.Day
			}
			return int(a.ID) - int(b.ID)
		})
		for i := range evs {
			evs[i].Value = float64(i)
		}
		return evs
	}

	return []frozenLayoutCase{
		{"empty", 7, nil},
		{"one event", 7, []Event{layoutEvent(0, math.MaxUint64, 3, 1)}},
		{"one device", 7, trace(1, 50, 4, func(*rand.Rand) DeviceID { return 0 }, days)},
		{"radix digit edges", 7, trace(2, 600, 0, edge, days)},
		{"radix digit edges, duplicates", 7, trace(3, 600, 3, edge, days)},
		{"negative days", 7, trace(4, 800, 5, edge, negDays)},
		{"negative days, one-day epochs", 1, trace(5, 400, 5, criteoDevs, negDays)},
		{"hot device", 7, trace(6, 7000, 6, hot, negDays)},
		{"ID order, random days", 7, trace(7, 20_000, 0, criteoDevs, days)},
		{"ID order, random days, duplicates", 30, trace(8, 20_000, 8, criteoDevs, days)},
		{"(Day, ID) order", 7, dayIDOrder(trace(9, 20_000, 0, criteoDevs, days))},
		{"(Day, ID) order, hot device, duplicates", 7, dayIDOrder(trace(10, 7000, 6, hot, negDays))},
	}
}

// TestFrozenLayoutMatchesReference pins NewFrozen's linear-time grouping to
// the comparison-sort reference on frozenLayoutCases.
func TestFrozenLayoutMatchesReference(t *testing.T) {
	for _, tc := range frozenLayoutCases() {
		t.Run(tc.name, func(t *testing.T) { checkFrozenLayout(t, tc.epochDays, tc.evs) })
	}
}

// TestDeviceDaySortMatchesReference holds sortByDeviceDayID, whose
// per-device sorts run as a fan-out over ranges of runs, to the stable
// (Day, ID) reference permutation at one worker and at eight, on
// frozenLayoutCases and on shuffled copies of each: the hot device's run
// spans several ranges, and the larger traces split into several.
func TestDeviceDaySortMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(1))
	for _, tc := range frozenLayoutCases() {
		shuffled := slices.Clone(tc.evs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, evs := range [][]Event{tc.evs, shuffled} {
			want := refSortByDeviceDayID(evs)
			for _, procs := range []int{1, 8} {
				runtime.GOMAXPROCS(procs)
				idx, devs := sortByDeviceDayID(evs)
				if !slices.Equal(idx, want) {
					t.Fatalf("%s (%d events), GOMAXPROCS %d: permutation differs from the reference", tc.name, len(evs), procs)
				}
				for i, x := range idx {
					if devs[i] != evs[x].Device {
						t.Fatalf("%s, GOMAXPROCS %d: devs[%d] = %d, want %d", tc.name, procs, i, devs[i], evs[x].Device)
					}
				}
			}
		}
	}
}

// TestFrozenParallelFillMatchesSerial: NewFrozen's per-epoch fill lays out
// the same store on one worker as on eight — every segment with its chunks,
// scan keys and region index, in the same order, and the same seen-sets —
// on frozenLayoutCases. Under -race it also shows that the fill's workers
// share no writes.
func TestFrozenParallelFillMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range frozenLayoutCases() {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			serial := NewFrozen(tc.epochDays, tc.evs)
			runtime.GOMAXPROCS(8)
			parallel := NewFrozen(tc.epochDays, tc.evs)
			if len(parallel.segs) != len(serial.segs) {
				t.Fatalf("%d segments on eight workers, %d on one", len(parallel.segs), len(serial.segs))
			}
			for i, seg := range serial.segs {
				if !reflect.DeepEqual(parallel.segs[i], seg) {
					t.Fatalf("segment %d (epoch %d) differs between one and eight workers", i, seg.epoch)
				}
			}
			if !slices.Equal(parallel.advs, serial.advs) || !slices.Equal(parallel.camps, serial.camps) {
				t.Fatal("seen-sets differ between one and eight workers")
			}
		})
	}
}

// frozenFuzzEvents decodes a fuzz input into a layout test's epoch length
// and events. Byte 0 picks the epoch length and a pool of up to eight device
// IDs, each read as eight little-endian bytes (so any uint64, every radix
// digit, is reachable); then every three bytes are one event: a pool index,
// a signed day and an ID, so devices repeat and (Day, ID) pairs collide.
func frozenFuzzEvents(data []byte) (int, []Event) {
	if len(data) == 0 {
		return 1, nil
	}
	epochDays := 1 + int(data[0]>>3)%14
	var pool []DeviceID
	for n, rest := int(data[0]&7)+1, data[1:]; len(pool) < n && len(rest) >= 8; rest = rest[8:] {
		pool = append(pool, DeviceID(binary.LittleEndian.Uint64(rest)))
	}
	data = data[1+8*len(pool):]
	if len(pool) == 0 {
		return epochDays, nil
	}
	var evs []Event
	for ; len(data) >= 3; data = data[3:] {
		evs = append(evs, layoutEvent(len(evs), pool[int(data[0])%len(pool)], int(int8(data[1])), EventID(data[2])))
	}
	return epochDays, evs
}

// FuzzFrozenLayout holds NewFrozen to the reference permutation over fuzzed
// device IDs, days and IDs.
func FuzzFrozenLayout(f *testing.F) {
	seed := func(epochByte byte, devs []uint64, evs ...[3]byte) []byte {
		b := []byte{epochByte<<3 | byte(len(devs)-1)}
		for _, d := range devs {
			b = binary.LittleEndian.AppendUint64(b, d)
		}
		for _, ev := range evs {
			b = append(b, ev[:]...)
		}
		return b
	}
	f.Add(seed(6, []uint64{math.MaxUint64, 0, 1 << 63},
		[3]byte{0, 5, 1}, [3]byte{1, 5, 1}, [3]byte{2, 0xfb, 2}, [3]byte{0, 5, 1}, [3]byte{0, 4, 9}))
	f.Add(seed(0, []uint64{1<<11 - 1, 1 << 11, 1<<11 + 1, 1<<22 + 1},
		[3]byte{3, 1, 1}, [3]byte{2, 1, 1}, [3]byte{1, 2, 2}, [3]byte{0, 3, 3}, [3]byte{2, 0, 4}, [3]byte{1, 0x80, 5}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		epochDays, evs := frozenFuzzEvents(data)
		checkFrozenLayout(t, epochDays, evs)
	})
}
