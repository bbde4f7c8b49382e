package core

import (
	"reflect"
	"unsafe"

	"repro/internal/events"
	"repro/internal/privacy"
)

// fleetBytes is what a fleet holds for its devices.
type fleetBytes struct {
	chunks int // the chunks and their directory
	index  int // the index's tags and slots
	blocks int // the devices' ledger blocks, at their room
}

// footprint counts f's bytes. A block's room is read off its table.
func (f *Fleet) footprint() fleetBytes {
	chunks := *f.chunks.Load()
	x := f.index.Load()
	fb := fleetBytes{
		chunks: len(chunks)*int(unsafe.Sizeof(deviceChunk{})) + cap(chunks)*int(unsafe.Sizeof(chunks[0])),
		index:  len(x.tags)*8 + len(x.slots)*4,
	}
	f.Range(func(d *Device) bool {
		t := reflect.ValueOf(&d.ledger).Elem()
		fb.blocks += 8 * int(t.FieldByName("room").Uint())
		return true
	})
	return fb
}

// Devices returns the IDs of all created devices in ascending order: Range's
// order.
func (f *Fleet) Devices() []events.DeviceID {
	out := make([]events.DeviceID, 0, f.Len())
	f.Range(func(d *Device) bool {
		out = append(out, d.id)
		return true
	})
	return out
}

// testCharge deducts eps from (q, e)'s ledger slot directly — the test
// analogue of the old d.filter(q, e).Consume(eps), used to pre-exhaust
// budgets before exercising report generation.
func (d *Device) testCharge(q events.Site, e events.Epoch, eps float64) privacy.ChargeOutcome {
	out := []privacy.ChargeOutcome{0}
	d.ledger.ChargeWindowBatch(d.env.epsG, []privacy.WindowCharge{{Querier: q, First: int64(e), Losses: []float64{eps}, Outcomes: out}})
	return out[0]
}
