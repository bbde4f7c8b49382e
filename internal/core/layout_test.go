package core

import (
	"reflect"
	"testing"
	"unsafe"

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

// TestDeviceLayout pins what a fleet device costs: a Device of at most 80
// bytes holding its ledger by value, a ledger whose one pointer is its
// pointer-free block, and two allocations for a new device and its first
// requested mark — the Device and the block.
func TestDeviceLayout(t *testing.T) {
	if size := unsafe.Sizeof(Device{}); size > 80 {
		t.Errorf("Device is %d bytes, want ≤ 80", size)
	}
	typ := reflect.TypeOf(privacy.Ledger{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		switch {
		case f.Name == "block":
			if f.Type.Kind() != reflect.Slice || hasPointers(f.Type.Elem()) {
				t.Errorf("Ledger.block is a %s: want a slice of pointer-free words", f.Type)
			}
		case hasPointers(f.Type):
			t.Errorf("Ledger.%s is a %s: only the block may hold a pointer", f.Name, f.Type)
		}
	}

	site := events.Intern("layout.example")
	f := NewFleet(1, events.NewFrozen(7, nil), 1, CookieMonsterPolicy{})
	id := events.DeviceID(0)
	// Averaged over enough devices that the shard map's growth rounds away.
	if n := testing.AllocsPerRun(4096, func() {
		id++
		f.GetOrCreate(id).MarkRequested(site, 0, 4)
	}); n > 2 {
		t.Errorf("a new fleet device and its first mark: %v allocations, want ≤ 2", n)
	}
}
