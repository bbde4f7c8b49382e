package core

import (
	"sync"
	"testing"

	"repro/internal/attribution"
	"repro/internal/events"
)

func testFleet(shards int) *Fleet {
	db := events.NewFrozen(7, nil)
	return NewFleet(shards, func(id events.DeviceID) *Device {
		return NewDevice(id, db, 1, CookieMonsterPolicy{})
	})
}

func TestFleetShardCountRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {100, 128}} {
		f := testFleet(tc.in)
		if len(f.shards) != tc.want {
			t.Fatalf("shards(%d) = %d, want %d", tc.in, len(f.shards), tc.want)
		}
	}
	if f := testFleet(0); len(f.shards) == 0 || len(f.shards)&(len(f.shards)-1) != 0 {
		t.Fatalf("default shard count %d not a power of two", len(f.shards))
	}
}

func TestFleetGetOrCreateIsStable(t *testing.T) {
	f := testFleet(8)
	if f.Get(7) != nil {
		t.Fatal("Get invented a device")
	}
	d := f.GetOrCreate(7)
	if d == nil || d.ID() != 7 {
		t.Fatalf("GetOrCreate(7) = %v", d)
	}
	if f.GetOrCreate(7) != d || f.Get(7) != d {
		t.Fatal("second lookup returned a different device")
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestFleetDevicesSortedAndRangeOrder(t *testing.T) {
	f := testFleet(4)
	for _, id := range []events.DeviceID{42, 3, 17, 99, 1} {
		f.GetOrCreate(id)
	}
	ids := f.Devices()
	want := []events.DeviceID{1, 3, 17, 42, 99}
	if len(ids) != len(want) {
		t.Fatalf("Devices = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Devices = %v, want %v", ids, want)
		}
	}
	var seen []events.DeviceID
	f.Range(func(d *Device) bool {
		seen = append(seen, d.ID())
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 3 || seen[2] != 17 {
		t.Fatalf("Range visited %v", seen)
	}
}

// TestFleetConcurrentGetOrCreate hammers one fleet from many goroutines;
// under -race this covers the sharded registry's locking, and the identity
// checks prove no ID was ever created twice.
func TestFleetConcurrentGetOrCreate(t *testing.T) {
	f := testFleet(0)
	const workers = 16
	const devices = 200
	first := make([][]*Device, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]*Device, devices)
			for i := 0; i < devices; i++ {
				mine[i] = f.GetOrCreate(events.DeviceID(i))
			}
			first[w] = mine
		}(w)
	}
	wg.Wait()
	if f.Len() != devices {
		t.Fatalf("Len = %d, want %d", f.Len(), devices)
	}
	for w := 1; w < workers; w++ {
		for i := 0; i < devices; i++ {
			if first[w][i] != first[0][i] {
				t.Fatalf("worker %d saw a different device %d", w, i)
			}
		}
	}
}

// TestFleetConcurrentReportsAndReads generates reports on many devices while
// other goroutines read Consumed through Get — the -race coverage for the
// Device.Consumed locking fix and the fleet read path.
func TestFleetConcurrentReportsAndReads(t *testing.T) {
	const site = events.Site("nike.example")
	evs := make([]events.Event, 64)
	for i := range evs {
		evs[i] = events.Event{
			ID: events.EventID(i + 1), Kind: events.KindImpression,
			Device: events.DeviceID(i % 8), Day: 1,
			Advertiser: site, Campaign: "product-0",
		}
	}
	db := events.NewFrozen(7, evs)
	f := NewFleet(4, func(id events.DeviceID) *Device {
		return NewDevice(id, db, 100, CookieMonsterPolicy{})
	})
	req := &Request{
		Querier:    site,
		FirstEpoch: 0, LastEpoch: 3,
		Selector:          events.ProductSelector{Advertiser: site, Product: "product-0"},
		Function:          attribution.ScalarValue{Value: 1},
		Epsilon:           0.01,
		ReportSensitivity: 1,
		QuerySensitivity:  1,
		PNorm:             1,
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				dev := events.DeviceID((w + i) % 8)
				if w%2 == 0 {
					if _, _, err := f.GetOrCreate(dev).GenerateReport(req); err != nil {
						t.Error(err)
						return
					}
				} else if d := f.Get(dev); d != nil {
					d.Consumed(site, 0)
					d.ConsumedByQuerier()
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0.0
	f.Range(func(d *Device) bool {
		total += d.ConsumedByQuerier()[site]
		return true
	})
	if total <= 0 {
		t.Fatal("no budget consumed across the fleet")
	}
}
