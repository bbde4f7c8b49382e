package core

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
)

// hasPointers reports whether a value of typ holds a pointer the collector
// would follow.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
		reflect.Interface, reflect.Func, reflect.Chan:
		return true
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
	case reflect.Array:
		return hasPointers(typ.Elem())
	}
	return false
}

// TestDeviceLayout pins what a fleet device costs: a Device of at most 48
// bytes holding its ledger table by value and nothing its fleet shares, a
// table whose one pointer is its pointer-free block, and one amortised
// allocation for a new fleet device and its first requested mark — the
// block; the device itself lives in a chunk of its fleet's.
func TestDeviceLayout(t *testing.T) {
	if size := unsafe.Sizeof(Device{}); size > 48 {
		t.Errorf("Device is %d bytes, want ≤ 48", size)
	}
	typ := reflect.TypeOf(privacy.Table{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		switch {
		case f.Name == "block":
			if f.Type.Kind() != reflect.Pointer || hasPointers(f.Type.Elem()) {
				t.Errorf("Table.block is a %s: want a pointer to pointer-free words", f.Type)
			}
		case hasPointers(f.Type):
			t.Errorf("Table.%s is a %s: only the block may hold a pointer", f.Name, f.Type)
		}
	}

	site := events.Intern("layout.example")
	f := NewFleet(events.NewFrozen(7, nil), 1, CookieMonsterPolicy{})
	id := events.DeviceID(0)
	// Averaged over enough devices that the chunks and the index's growth
	// round away.
	if n := testing.AllocsPerRun(4096, func() {
		id++
		f.GetOrCreate(id).MarkRequested(site, 0, 4)
	}); n > 1 {
		t.Errorf("a new fleet device and its first mark: %v allocations, want ≤ 1", n)
	}
}

// TestFleetBytesPerDevice pins what a fleet holds per device on a fixed
// micro trace, once released: its chunks, its index and its devices' ledger
// blocks. Every conversion marks its device's attribution window for its
// advertiser and charges the window's last epoch, as a report would.
func TestFleetBytesPerDevice(t *testing.T) {
	ds, err := dataset.Micro(dataset.DefaultMicroConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(events.NewFrozen(7, ds.Events), 1, CookieMonsterPolicy{})
	for _, ev := range ds.Events {
		if !ev.IsConversion() {
			continue
		}
		first, last := events.EpochWindow(ev.Day, 30, 7)
		d := f.GetOrCreate(ev.Device)
		d.MarkRequested(ev.Advertiser, first, last)
		d.testCharge(ev.Advertiser, last, 0.01)
	}
	grown := f.footprint().blocks
	f.ReleaseStore()
	fp := f.footprint()
	n := float64(f.Len())
	per := func(b int) float64 { return float64(b) / n }
	t.Logf("%d devices: chunks %.1f, index %.1f, blocks %.1f (%.1f before the release) bytes per device",
		f.Len(), per(fp.chunks), per(fp.index), per(fp.blocks), per(grown))
	// The fleet's own share is a Device and the index's slot; the rest is
	// what the trace charged.
	if got := per(fp.chunks + fp.index); got > 70 {
		t.Errorf("chunks and index take %.1f bytes per device, want ≤ 70", got)
	}
	if got := per(fp.chunks + fp.index + fp.blocks); got > 190 {
		t.Errorf("%.1f bytes per device, want ≤ 190", got)
	}
	if fp.blocks >= grown {
		t.Errorf("the release kept the blocks at %d bytes: it trimmed no headroom", grown)
	}
}
