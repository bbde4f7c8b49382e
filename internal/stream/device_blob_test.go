package stream

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
)

// laneCell is one (querier, epoch) cell of a test device: whether its slot
// is initialized and with what, and whether it is requested.
type laneCell struct {
	touched   bool
	consumed  float64
	requested bool
}

// deviceOf builds device 1 of a fresh sampleConfig service whose querier
// lanes hold cells, epoch first+i at index i, and with the given denial
// count.
func deviceOf(t *testing.T, lanes map[string][]laneCell, first events.Epoch, denials uint64) *core.Device {
	t.Helper()
	svc := sampleService(t, nil, "", false)
	d := svc.fleet.GetOrCreate(1)
	for q, cells := range lanes {
		for i, c := range cells {
			e := first + events.Epoch(i)
			if c.touched {
				if err := d.RestoreBudgetRow(events.Intern(q), e, c.consumed); err != nil {
					t.Fatal(err)
				}
			}
			if c.requested {
				d.MarkRequested(events.Intern(q), e, e)
			}
		}
	}
	d.RestoreBudgetDenials(denials)
	return d
}

// restoredDevice restores blob, as device 1's entry of a schema-9 devices
// section, into a fresh sampleConfig service through restoreDevices and
// returns the device.
func restoredDevice(t *testing.T, blob []byte) *core.Device {
	t.Helper()
	svc := sampleService(t, nil, "", false)
	c := &snapChain{schema: snapSchemaVersion, head: &snapHead{},
		parts: []*snapParts{{schema: snapSchemaVersion, sec: [numSections][]byte{
			secDevices: section([]DevEpoch{{Device: 1}}, [][]byte{blob})}}}}
	if err := svc.restoreDevices(c, make(siteIntern)); err != nil {
		t.Fatal(err)
	}
	return svc.fleet.Get(1)
}

// requested lists a device's requested marks as RangeRequested yields them.
func requested(d *core.Device) []string {
	var out []string
	d.RangeRequested(func(e events.Epoch, qs []events.Site, consumed []float64) {
		out = append(out, fmt.Sprint(e, qs, consumed))
	})
	return out
}

// TestDeviceBlobRoundTrip holds the schema-9 device blob to the ledger it
// encodes: for every pattern of five epochs of one querier's lane — each
// cell untouched or initialized, requested or not — beside a second
// querier's lane of another pattern, the blob restored into a fresh device
// gives the same Ledger() rows, RangeRequested walk and denial count, and
// the restored device encodes to the same bytes.
func TestDeviceBlobRoundTrip(t *testing.T) {
	const epochs = 5
	cellsOf := func(pattern int) []laneCell {
		cells := make([]laneCell, epochs)
		for i := range cells {
			state := pattern >> (2 * i) & 3
			cells[i] = laneCell{touched: state&1 != 0, consumed: float64(i) / 4, requested: state&2 != 0}
		}
		return cells
	}
	for pattern := 0; pattern < 1<<(2*epochs); pattern++ {
		lanes := map[string][]laneCell{
			"nike.example":   cellsOf(pattern),
			"adidas.example": cellsOf(pattern * 7919 % (1 << (2 * epochs))),
		}
		d := deviceOf(t, lanes, -2, uint64(pattern))
		blob := appendDevice(nil, d)
		got := restoredDevice(t, blob)
		if !slices.Equal(got.Ledger(), d.Ledger()) || !slices.Equal(requested(got), requested(d)) ||
			got.BudgetDenials() != d.BudgetDenials() {
			t.Fatalf("pattern %d: restored rows %v marks %v denials %d, encoded rows %v marks %v denials %d",
				pattern, got.Ledger(), requested(got), got.BudgetDenials(), d.Ledger(), requested(d), d.BudgetDenials())
		}
		if again := appendDevice(nil, got); !bytes.Equal(again, blob) {
			t.Fatalf("pattern %d: restored device encodes to %x, restored from %x", pattern, again, blob)
		}
	}
}

// TestDeviceBlobPinned pins the schema-9 device blob's bytes for a device of
// two querier lanes, so a change to the layout shows here before it reaches
// a directory on disk.
func TestDeviceBlobPinned(t *testing.T) {
	d := deviceOf(t, map[string][]laneCell{
		// Epochs -2 to 2: slots at -1 and 2, requested -2 to -1 and 1 to 2.
		"nike.example": {{requested: true}, {touched: true, consumed: 0.5, requested: true}, {},
			{requested: true}, {touched: true, consumed: 1, requested: true}},
		// A slot at 0 consumed to 0 and nothing requested.
		"adidas.example": {{}, {}, {touched: true}},
	}, -2, 3)
	want := "03" + // denials
		"0e" + "6164696461732e6578616d706c65" + // "adidas.example"
		"01" + "00" + "0000000000000000" + // one slot: epoch 0, consumed 0
		"00" + // no range
		"0c" + "6e696b652e6578616d706c65" + // "nike.example"
		"02" + "01" + "000000000000e03f" + "02" + "000000000000f03f" + // slots: -1 (zigzag), 0.5; 2 (2 past 0), 1
		"02" + "03" + "01" + "00" + "01" // ranges: -2 (zigzag) to -1; 1 (0 past 1) to 2
	if got := hex.EncodeToString(appendDevice(nil, d)); got != want {
		t.Fatalf("device blob\n got %s\nwant %s", got, want)
	}
}
