package events

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	if KindImpression.String() != "impression" || KindConversion.String() != "conversion" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown Kind.String wrong")
	}
}

func TestIsImpressionConversion(t *testing.T) {
	imp := Event{Kind: KindImpression}
	conv := Event{Kind: KindConversion}
	if !imp.IsImpression() || imp.IsConversion() {
		t.Fatal("impression predicates wrong")
	}
	if !conv.IsConversion() || conv.IsImpression() {
		t.Fatal("conversion predicates wrong")
	}
}

func TestBeforeOrdersByDayThenID(t *testing.T) {
	a := Event{ID: 1, Day: 1}
	b := Event{ID: 2, Day: 2}
	c := Event{ID: 3, Day: 2}
	if !a.Before(b) || b.Before(a) {
		t.Fatal("day ordering wrong")
	}
	if !b.Before(c) || c.Before(b) {
		t.Fatal("ID tiebreak wrong")
	}
	if a.Before(a) {
		t.Fatal("Before not irreflexive")
	}
}

func TestEpochOfDay(t *testing.T) {
	cases := []struct {
		day, epochDays int
		want           Epoch
	}{
		{0, 7, 0}, {6, 7, 0}, {7, 7, 1}, {13, 7, 1}, {14, 7, 2},
		{0, 1, 0}, {5, 1, 5},
		{-1, 7, -1}, {-7, 7, -1}, {-8, 7, -2},
		{29, 30, 0}, {30, 30, 1},
	}
	for _, tc := range cases {
		if got := EpochOfDay(tc.day, tc.epochDays); got != tc.want {
			t.Fatalf("EpochOfDay(%d, %d) = %d, want %d", tc.day, tc.epochDays, got, tc.want)
		}
	}
}

func TestEpochOfDayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EpochOfDay(0, 0) did not panic")
		}
	}()
	EpochOfDay(0, 0)
}

func TestEpochWindow(t *testing.T) {
	// 30-day window ending on day 35, 7-day epochs: days 6..35 → epochs 0..5.
	first, last := EpochWindow(35, 30, 7)
	if first != 0 || last != 5 {
		t.Fatalf("window = [%d, %d], want [0, 5]", first, last)
	}
	// Window entirely inside one epoch.
	first, last = EpochWindow(3, 3, 7)
	if first != 0 || last != 0 {
		t.Fatalf("window = [%d, %d], want [0, 0]", first, last)
	}
}

func TestEpochWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EpochWindow with zero window did not panic")
		}
	}()
	EpochWindow(10, 0, 7)
}

func TestEpochWindowCoversConversionDayQuick(t *testing.T) {
	f := func(day uint16, window, epochDays uint8) bool {
		w := int(window%60) + 1
		ed := int(epochDays%30) + 1
		first, last := EpochWindow(int(day), w, ed)
		conv := EpochOfDay(int(day), ed)
		firstDayEpoch := EpochOfDay(int(day)-w+1, ed)
		return first <= last && conv == last && first == firstDayEpoch
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEpochsIn(t *testing.T) {
	got := EpochsIn(2, 5)
	want := []Epoch{2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("EpochsIn = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EpochsIn = %v", got)
		}
	}
	if EpochsIn(5, 2) != nil {
		t.Fatal("inverted range should be nil")
	}
	if len(EpochsIn(3, 3)) != 1 {
		t.Fatal("singleton range wrong")
	}
}

// TestEventIsPointerFree pins the event's layout: no field the collector
// must follow, and 56 bytes, so a held trace or store arena is one flat
// allocation the collector never scans.
func TestEventIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: the event would hold a pointer", path, typ.Kind())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Event", reflect.TypeOf(Event{}))
	if size := unsafe.Sizeof(Event{}); size != 56 {
		t.Errorf("Event is %d bytes, want 56", size)
	}
}
