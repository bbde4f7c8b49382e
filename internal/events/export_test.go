package events

import (
	"slices"
	"sync/atomic"
)

// EpochEvents returns the events of device d at epoch e (the paper's D^e_d),
// or nil when the device-epoch is empty. The returned slice is shared;
// callers must not modify it.
func (db *Database) EpochEvents(d DeviceID, e Epoch) []Event {
	var buf [1]EventView
	return db.WindowViewsInto(buf[:0], d, e, e)[0].evs
}

// Keys returns every live device-epoch record's key in (epoch, device)
// order, Records' order.
func (db *Database) Keys() []DeviceEpochKey {
	var keys []DeviceEpochKey
	for k := range db.Records() {
		keys = append(keys, k)
	}
	return keys
}

// AppendEvents appends the MarshalEvents encoding of evs to buf.
func AppendEvents(buf []byte, evs []Event) []byte { return append(buf, MarshalEvents(evs)...) }

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
