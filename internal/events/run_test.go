package events_test

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/events"
)

// pinnedRunFrame is a version-2 WAL segment holding one frame, first
// sequence number 41, of pinnedRunEvents' run: the preamble, then length,
// CRC-32C and first sequence number, then the entries.
const pinnedRunFrame = "434d57414c30303102000000" + "4b000000" + "d0215ed6" + "2900000000000000" +
	"000e0318000b7075622e6578616d706c65000c6e696b652e6578616d706c650002633100" + "00" +
	"41040300040204000573686f6573" + "0000000000002940" +
	"c10102030402040500000000" + "00000840"

// pinnedRunEvents is an impression that defines four names, a conversion
// that reuses two and defines one, and a late-dropped conversion.
func pinnedRunEvents() ([]events.Event, []bool) {
	nike, shoes := events.Intern("nike.example"), events.Intern("shoes")
	return []events.Event{
		{ID: 7, Kind: events.KindImpression, Device: 3, Day: 12, Publisher: events.Intern("pub.example"),
			Advertiser: nike, Campaign: events.Intern("c1")},
		{ID: 9, Kind: events.KindConversion, Device: 3, Day: 12, Advertiser: nike, Product: shoes, Value: 12.5},
		{ID: 8, Kind: events.KindConversion, Device: 2, Day: 10, Advertiser: nike, Product: shoes, Value: 3},
	}, []bool{false, false, true}
}

// TestRunBytesPinned pins the run format and the WAL frame around it byte
// for byte: names written once per run and referred to by run index,
// varint deltas for ID and day, no value bytes for an impression, the
// late-drop flag, and one header per group commit.
func TestRunBytesPinned(t *testing.T) {
	evs, dropped := pinnedRunEvents()
	var enc events.RunEncoder
	var run []byte
	for i, ev := range evs {
		run = enc.Append(run, ev, dropped[i])
	}
	path := filepath.Join(t.TempDir(), "wal-00000001.log")
	w, err := checkpoint.OpenWALFile(checkpoint.OsFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(41, run); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != pinnedRunFrame {
		t.Fatalf("segment bytes\n%s\npinned\n%s", got, pinnedRunFrame)
	}

	var frames int
	var dec events.RunDecoder
	_, err = checkpoint.ReplayWALFile(checkpoint.OsFS{}, path, func(fr checkpoint.WALFrame) error {
		frames++
		if fr.Version != 2 || fr.FirstSeq != 41 {
			t.Errorf("frame version %d, first sequence number %d", fr.Version, fr.FirstSeq)
		}
		i := 0
		_, err := dec.Decode(fr.Body, func(ev events.Event, drop bool) error {
			if ev != evs[i] || drop != dropped[i] {
				t.Errorf("entry %d decodes to %+v (dropped %v), want %+v (dropped %v)", i, ev, drop, evs[i], dropped[i])
			}
			i++
			return nil
		})
		return err
	})
	if err != nil || frames != 1 {
		t.Fatalf("replaying the pinned segment: %d frames, %v", frames, err)
	}
}

// runEvent draws an event whose fields cover the codec's corners: both
// kinds and an escaped one, IDs and days that go backwards, extreme
// devices, the empty name, and values with and without bits.
func runEvent(rng *rand.Rand) events.Event {
	names := []events.Sym{events.Intern(""), events.Intern("nike.com"), events.Intern("p0"), events.Intern("a-much-longer-campaign-name")}
	kinds := []events.Kind{events.KindImpression, events.KindConversion, 63, 255}
	values := []float64{0, 1.5, -2, 1e300}
	return events.Event{
		ID:         events.EventID(rng.Uint64() >> uint(rng.Intn(64))),
		Kind:       kinds[rng.Intn(len(kinds))],
		Device:     events.DeviceID(rng.Uint64() >> uint(rng.Intn(64))),
		Day:        rng.Intn(2000) - 1000,
		Publisher:  names[rng.Intn(len(names))],
		Advertiser: names[rng.Intn(len(names))],
		Campaign:   names[rng.Intn(len(names))],
		Product:    names[rng.Intn(len(names))],
		Value:      values[rng.Intn(len(values))],
	}
}

// TestRunRoundTrip decodes runs of random events, fed to the decoder in
// random pieces, back to the events and flags they were encoded from.
func TestRunRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var enc events.RunEncoder
	var dec events.RunDecoder
	for trial := 0; trial < 200; trial++ {
		enc.Reset()
		dec.Reset()
		n := rng.Intn(20)
		var run []byte
		var cuts []int
		evs, dropped := make([]events.Event, n), make([]bool, n)
		for i := range evs {
			evs[i], dropped[i] = runEvent(rng), rng.Intn(4) == 0
			run = enc.Append(run, evs[i], dropped[i])
			if rng.Intn(3) == 0 {
				cuts = append(cuts, len(run))
			}
		}
		cuts = append(cuts, len(run))
		i, from := 0, 0
		for _, to := range cuts {
			_, err := dec.Decode(run[from:to], func(ev events.Event, drop bool) error {
				if ev != evs[i] || drop != dropped[i] {
					t.Fatalf("trial %d entry %d: %+v (%v), want %+v (%v)", trial, i, ev, drop, evs[i], dropped[i])
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatalf("trial %d: piece [%d, %d): %v", trial, from, to, err)
			}
			from = to
		}
		if i != n {
			t.Fatalf("trial %d: decoded %d of %d entries", trial, i, n)
		}
	}
}

// FuzzEventRun holds the run decoder to its contract over arbitrary bytes
// fed as two frames of one run: no input panics; a refused frame interns
// nothing and leaves the decoder where it was, so the frame after it
// decodes as if the refused one never came; and a run that decodes
// re-encodes to exactly its bytes.
func FuzzEventRun(f *testing.F) {
	evs, dropped := pinnedRunEvents()
	var enc events.RunEncoder
	var run []byte
	for i, ev := range evs {
		run = enc.Append(run, ev, dropped[i])
	}
	f.Add(run, 40)
	f.Add(run, 0)
	f.Add(run[:len(run)-1], 12)
	rng := rand.New(rand.NewSource(3))
	enc.Reset()
	run = nil
	for i := 0; i < 8; i++ {
		run = enc.Append(run, runEvent(rng), i%3 == 0)
	}
	f.Add(run, len(run)/2)
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		if cut < 0 || cut > len(data) {
			cut = len(data)
		}
		var dec events.RunDecoder
		var got []events.Event
		var drops []bool
		collect := func(ev events.Event, drop bool) error {
			got, drops = append(got, ev), append(drops, drop)
			return nil
		}
		for _, piece := range [][]byte{data[:cut], data[cut:]} {
			before := events.SymCount()
			n := len(got)
			_, err := dec.Decode(piece, collect)
			if err == nil {
				continue
			}
			if events.SymCount() != before || len(got) != n {
				t.Fatalf("refused frame interned %d names and delivered %d entries: %v",
					events.SymCount()-before, len(got)-n, err)
			}
			// A decoder the refusal moved would refuse the frame again for
			// a different reason, or accept it.
			if _, again := dec.Decode(piece, collect); again == nil || again.Error() != err.Error() {
				t.Fatalf("frame refused with %v, then with %v", err, again)
			}
			return
		}
		var again []byte
		var enc events.RunEncoder
		for i, ev := range got {
			again = enc.Append(again, ev, drops[i])
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("run of %d entries re-encodes to %x, decoded from %x", len(got), again, data)
		}
	})
}
