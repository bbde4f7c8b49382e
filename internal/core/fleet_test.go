package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/attribution"
	"repro/internal/events"
)

func testFleet() *Fleet {
	return NewFleet(events.NewFrozen(7, nil), 1, CookieMonsterPolicy{})
}

func TestFleetGetOrCreateIsStable(t *testing.T) {
	f := testFleet()
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
	f := testFleet()
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
// under -race this covers the lock-free index's publication, and the identity
// checks prove no ID was ever created twice.
func TestFleetConcurrentGetOrCreate(t *testing.T) {
	f := testFleet()
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
	var site = events.Intern("nike.example")
	evs := make([]events.Event, 64)
	for i := range evs {
		evs[i] = events.Event{
			ID: events.EventID(i + 1), Kind: events.KindImpression,
			Device: events.DeviceID(i % 8), Day: 1,
			Advertiser: site, Campaign: events.Intern("product-0"),
		}
	}
	db := events.NewFrozen(7, evs)
	f := NewFleet(db, 100, CookieMonsterPolicy{})
	req := &Request{
		Querier:    site.String(),
		FirstEpoch: 0, LastEpoch: 3,
		Selector:          events.ProductSelector{Advertiser: site, Product: events.Intern("product-0")},
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

// deviceReads is everything a finished run reads off one device.
type deviceReads struct {
	requested []string
	totals    map[events.Site]float64
	denials   uint64
	version   uint64
}

// fleetReads collects every device's ledger reads, in Range order, checking
// that Get returns the device Range visited.
func fleetReads(t *testing.T, f *Fleet) map[events.DeviceID]deviceReads {
	t.Helper()
	out := make(map[events.DeviceID]deviceReads)
	f.Range(func(d *Device) bool {
		if f.Get(d.ID()) != d {
			t.Fatalf("Get(%d) is not the device Range visited", d.ID())
		}
		var r deviceReads
		d.RangeRequested(func(e events.Epoch, queriers []events.Site, consumed []float64) {
			r.requested = append(r.requested, fmt.Sprint(e, queriers, consumed))
		})
		r.totals = d.ConsumedByQuerier()
		r.denials = d.BudgetDenials()
		r.version = d.LedgerVersion()
		out[d.ID()] = r
		return true
	})
	return out
}

// mustPanicWithRelease runs fn and requires a panic whose message names the
// release, not a nil dereference inside the events package.
func mustPanicWithRelease(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s on a released fleet did not panic", what)
			return
		}
		if _, ok := r.(runtime.Error); ok {
			t.Errorf("%s panicked with a runtime error: %v", what, r)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "ReleaseStore") {
			t.Errorf("%s panicked with %q, which does not name the release", what, msg)
		}
	}()
	fn()
}

// TestReleasedFleet pins ReleaseStore's contract: every read a finished run
// makes — Get, Range, Len, Devices and the ledger reads — answers exactly
// what it answered before the release, while creating a device or
// generating a report panics with a message that names the release.
func TestReleasedFleet(t *testing.T) {
	var site = events.Intern("nike.example")
	evs := make([]events.Event, 64)
	for i := range evs {
		evs[i] = events.Event{
			ID: events.EventID(i + 1), Kind: events.KindImpression,
			Device: events.DeviceID(i % 8), Day: 1 + i%20,
			Advertiser: site, Campaign: events.Intern("product-0"),
		}
	}
	db := events.NewFrozen(7, evs)
	// A capacity small enough that repeated reports on a device run into it.
	f := NewFleet(db, 0.025, CookieMonsterPolicy{})
	req := func(first, last events.Epoch) *Request {
		return &Request{
			Querier:    site.String(),
			FirstEpoch: first, LastEpoch: last,
			Selector:          events.ProductSelector{Advertiser: site, Product: events.Intern("product-0")},
			Function:          attribution.ScalarValue{Value: 1},
			Epsilon:           0.01,
			ReportSensitivity: 1,
			QuerySensitivity:  1,
			PNorm:             1,
		}
	}
	var ms MultiScratch
	for dev := events.DeviceID(0); dev < 8; dev++ {
		d := f.GetOrCreate(dev)
		d.MarkRequested(site, 0, 3)
		for i := 0; i < 3; i++ {
			if _, _, err := d.GenerateReport(req(0, 3)); err != nil {
				t.Fatal(err)
			}
		}
		reqs := []*Request{req(1, 2), req(0, 1)}
		if _, err := d.GenerateReportBatch(reqs, &ms, make([]*Report, 2), make([]ReportStats, 2)); err != nil {
			t.Fatal(err)
		}
	}
	before := fleetReads(t, f)
	ids, n := f.Devices(), f.Len()
	denials := uint64(0)
	for _, r := range before {
		denials += r.denials
	}
	if denials == 0 {
		t.Fatal("no charge was denied: the denial read is not exercised")
	}

	f.ReleaseStore()
	f.ReleaseStore() // idempotent

	if got := fleetReads(t, f); !reflect.DeepEqual(got, before) {
		t.Fatalf("reads changed across the release:\nbefore %v\nafter  %v", before, got)
	}
	if got := f.Devices(); !reflect.DeepEqual(got, ids) || f.Len() != n {
		t.Fatalf("released fleet lists %v (Len %d), want %v (Len %d)", got, f.Len(), ids, n)
	}
	d := f.GetOrCreate(3)
	if d != f.Get(3) {
		t.Fatal("GetOrCreate of a known ID did not return its device")
	}

	mustPanicWithRelease(t, "GetOrCreate of an unseen ID", func() { f.GetOrCreate(99) })
	if f.Get(99) != nil || f.Len() != n {
		t.Fatal("the refused GetOrCreate left a device behind")
	}
	mustPanicWithRelease(t, "GenerateReport", func() { d.GenerateReport(req(0, 3)) })
	mustPanicWithRelease(t, "GenerateReportBatch", func() {
		d.GenerateReportBatch([]*Request{req(0, 3), req(1, 2)}, &ms, make([]*Report, 2), make([]ReportStats, 2))
	})
	if got := fleetReads(t, f); !reflect.DeepEqual(got, before) {
		t.Fatal("a refused generate call changed the ledger")
	}
}

// TestFleetCreationOrderDoesNotMatter builds two fleets over one store,
// creating the same devices in ascending ID order in one and in descending
// order in the other — enough of them to grow the index several times and
// fill many chunks — and applies the same marks and charges to both: every
// read a finished run makes must come out the same.
func TestFleetCreationOrderDoesNotMatter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[events.DeviceID]bool)
	for len(seen) < 3000 {
		seen[events.DeviceID(rng.Uint64()>>rng.Intn(64))] = true
	}
	ids := slices.Sorted(maps.Keys(seen))
	db := events.NewFrozen(7, nil)
	up, down := NewFleet(db, 1, CookieMonsterPolicy{}), NewFleet(db, 1, CookieMonsterPolicy{})
	for i := range ids {
		up.GetOrCreate(ids[i])
		down.GetOrCreate(ids[len(ids)-1-i])
	}
	sites := []events.Site{events.Intern("b.order.example"), events.Intern("a.order.example")}
	for _, f := range []*Fleet{up, down} {
		for i, id := range ids {
			d := f.Get(id)
			for k := range 1 + i%3 {
				q, e := sites[(i+k)%2], events.Epoch(i%5+k)
				d.MarkRequested(q, e, e+2)
				d.testCharge(q, e+1, 0.3*float64(k+i%4)) // some run into the capacity
			}
		}
	}

	if up.Len() != len(ids) || down.Len() != len(ids) {
		t.Fatalf("Len = %d and %d, want %d", up.Len(), down.Len(), len(ids))
	}
	if !slices.Equal(up.Devices(), ids) || !slices.Equal(down.Devices(), ids) {
		t.Fatal("Devices() is not the IDs in ascending order")
	}
	rangeOrder := func(f *Fleet) (order []events.DeviceID, rows [][]LedgerRow) {
		f.Range(func(d *Device) bool {
			order = append(order, d.ID())
			rows = append(rows, d.Ledger())
			return true
		})
		return order, rows
	}
	upOrder, upRows := rangeOrder(up)
	downOrder, downRows := rangeOrder(down)
	if !slices.Equal(upOrder, ids) || !slices.Equal(downOrder, ids) {
		t.Fatal("Range does not visit the IDs in ascending order")
	}
	if !reflect.DeepEqual(upRows, downRows) {
		t.Fatal("Ledger rows differ between the creation orders")
	}
	if got, want := fleetReads(t, down), fleetReads(t, up); !reflect.DeepEqual(got, want) {
		t.Fatal("requested walks, totals, denials or versions differ between the creation orders")
	}
}
