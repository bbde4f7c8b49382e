package events

import (
	"encoding/binary"
	"math"
	"slices"
	"sync/atomic"
)

// AppendBinary appends ev's row-layout encoding, the one DecodeBinary
// reads, to buf and returns the extended slice. Names are written, never
// symbol numbers, so the bytes do not depend on the process that wrote them.
func AppendBinary(buf []byte, ev Event) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.ID))
	buf = append(buf, byte(ev.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.Device))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(ev.Day)))
	for _, s := range [...]Sym{ev.Publisher, ev.Advertiser, ev.Campaign, ev.Product} {
		name := s.String()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.Value))
}

// SymCount returns the number of names in the process's symbol table, the
// empty name included.
func SymCount() int { return len(*symtab.names.Load()) }

// lastEventID is the last identifier NextEventID minted, in any database.
var lastEventID atomic.Uint64

// NextEventID mints a fresh event identifier, unique in the process.
func (db *Database) NextEventID() EventID { return EventID(lastEventID.Add(1)) }

// DeviceEpochs returns the populated epochs of a device in ascending order.
func (db *Database) DeviceEpochs(d DeviceID) []Epoch {
	var out []Epoch
	for _, seg := range db.segs {
		if _, ok := seg.byDevice.get(d); ok {
			out = append(out, seg.epoch)
		}
	}
	return out
}

// Devices returns all device IDs present in the database, in ascending
// order.
func (db *Database) Devices() []DeviceID {
	var out []DeviceID
	for _, seg := range db.segs {
		for d := range seg.byDevice.all {
			out = append(out, d)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// NumDevices returns the number of devices with at least one event.
func (db *Database) NumDevices() int {
	return len(db.Devices())
}

// NumEvents returns the total number of events stored.
func (db *Database) NumEvents() int {
	n := 0
	for _, seg := range db.segs {
		for _, r := range seg.byDevice.all {
			n += int(r.n)
		}
	}
	return n
}

// MatchesNone reports that the compiled selector can match no event in this
// database (e.g. its advertiser or campaigns never occur) — the caller may
// skip the scan entirely, which is exactly the zero-loss case.
func (m *Matcher) MatchesNone() bool { return m.none }
