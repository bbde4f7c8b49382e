package events

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func codecEvent(rng *rand.Rand, id EventID) Event {
	sites := []Site{Intern(""), Intern("nike.com"), Intern("adidas.com")}
	strs := []Sym{Intern(""), Intern("p0"), Intern("p1"), Intern("a-much-longer-campaign-name")}
	ev := Event{
		ID:         id,
		Kind:       Kind(rng.Intn(3)), // including an out-of-range kind
		Device:     DeviceID(rng.Uint64()),
		Day:        rng.Intn(200) - 100,
		Publisher:  sites[rng.Intn(len(sites))],
		Advertiser: sites[rng.Intn(len(sites))],
		Campaign:   strs[rng.Intn(len(strs))],
		Product:    strs[rng.Intn(len(strs))],
	}
	switch rng.Intn(4) {
	case 0:
		ev.Value = math.NaN()
	case 1:
		ev.Value = math.Inf(-1)
	default:
		ev.Value = rng.NormFloat64() * 100
	}
	return ev
}

// eventsEqual compares bit-exactly (NaN payloads included), which
// reflect.DeepEqual does for float64 fields only when bits match — exactly
// the codec's contract.
func eventsEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return false
		}
		x.Value, y.Value = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

func TestMarshalEventsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		evs := make([]Event, rng.Intn(20))
		for i := range evs {
			evs[i] = codecEvent(rng, EventID(i+1))
		}
		got, err := UnmarshalEvents(MarshalEvents(evs))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(evs) == 0 {
			if got != nil {
				t.Fatalf("trial %d: empty list decoded to %v", trial, got)
			}
			continue
		}
		if !eventsEqual(evs, got) {
			t.Fatalf("trial %d: round trip diverged:\n in %v\nout %v", trial, evs, got)
		}
	}
}

func TestMarshalEventsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	evs := make([]Event, 16)
	for i := range evs {
		evs[i] = codecEvent(rng, EventID(i+1))
	}
	a, b := MarshalEvents(evs), MarshalEvents(evs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("MarshalEvents is not byte-deterministic for equal input")
	}
}

// TestUnmarshalEventsRobustToTruncation feeds every prefix of a valid blob
// (and a bit-flipped variant) to the decoder: it must return an error or a
// valid result, never panic — the WAL/snapshot corruption contract.
func TestUnmarshalEventsRobustToTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	evs := make([]Event, 8)
	for i := range evs {
		evs[i] = codecEvent(rng, EventID(i+1))
	}
	blob := MarshalEvents(evs)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := UnmarshalEvents(blob[:cut]); err == nil && cut < len(blob) {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(blob))
		}
	}
	for i := 0; i < len(blob); i += 7 {
		corrupt := append([]byte(nil), blob...)
		corrupt[i] ^= 0x40
		_, _ = UnmarshalEvents(corrupt) // must not panic
	}
}

// TestAppendEventsLargeTable builds a string table of dozens of names, with
// repeats, and checks the blob round-trips, dedupes, and appends after a
// prefix.
func TestAppendEventsLargeTable(t *testing.T) {
	const internLinearMax = 16 // half the distinct campaigns
	var evs []Event
	for i := 0; i < 3*internLinearMax; i++ {
		evs = append(evs, Event{ID: EventID(i + 1), Device: 9, Day: i,
			Publisher: Intern("pub.example"), Advertiser: Intern(fmt.Sprintf("adv-%d.example", i%5)),
			Campaign: Intern(fmt.Sprintf("campaign-%d", i%(2*internLinearMax))), Product: Intern("p"), Value: float64(i)})
	}
	prefix := []byte("prefix")
	blob := AppendEvents(append([]byte(nil), prefix...), evs)
	if !bytes.HasPrefix(blob, prefix) || !bytes.Equal(blob[len(prefix):], MarshalEvents(evs)) {
		t.Fatal("AppendEvents after a prefix differs from MarshalEvents")
	}
	got, err := UnmarshalEvents(blob[len(prefix):])
	if err != nil || !eventsEqual(got, evs) {
		t.Fatalf("round trip: err=%v", err)
	}
	// 1 publisher + 5 advertisers + 2·internLinearMax campaigns + 1 product.
	n := len(evs)
	table := binary.LittleEndian.Uint32(blob[len(prefix)+4+25*n:])
	if want := uint32(1 + 5 + 2*internLinearMax + 1); table != want {
		t.Fatalf("string table holds %d entries, want %d", table, want)
	}
}

// FuzzEventCodec feeds arbitrary bytes to the columnar decoder, which may
// not panic. A blob UnmarshalEvents accepts re-encodes to the canonical blob
// of the same events, which round-trips byte for byte. And since the symbol
// table is never freed, an input it refuses must intern nothing.
func FuzzEventCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	evs := make([]Event, 6)
	for i := range evs {
		evs[i] = codecEvent(rng, EventID(i+1))
	}
	// Every name set, so a mutated name byte makes a name nothing interned.
	evs[0].Publisher, evs[0].Advertiser = Intern("fuzz-pub.example"), Intern("fuzz-adv.example")
	evs[0].Campaign, evs[0].Product = Intern("fuzz-campaign"), Intern("fuzz-product")
	blob := MarshalEvents(evs)
	one := MarshalEvents(evs[:1])
	f.Add(blob)
	f.Add(one)
	f.Add(blob[:len(blob)-3])
	f.Add(one[:len(one)-1])
	f.Add(MarshalEvents(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		before := SymCount()
		got, err := UnmarshalEvents(data)
		if err != nil {
			if SymCount() != before {
				t.Fatalf("refused blob interned %d names: %v", SymCount()-before, err)
			}
			return
		}
		enc := MarshalEvents(got)
		again, err := UnmarshalEvents(enc)
		if err != nil || !eventsEqual(again, got) || !bytes.Equal(MarshalEvents(again), enc) {
			t.Fatalf("blob of %d events does not round-trip through its re-encoding (err %v)", len(got), err)
		}
	})
}
