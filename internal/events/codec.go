package events

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Compact binary encodings for events — the hot serialization on the
// streaming service's durability path. Two codecs share this file:
//
//   - AppendBinary/DecodeBinary: one event, row layout — the WAL record
//     codec, where events are logged one at a time as they are ingested.
//     Layout (little-endian): ID u64, Kind u8, Device u64, Day i64, four
//     length-prefixed strings (u32 + bytes): Publisher, Advertiser,
//     Campaign, Product, then Value as IEEE-754 bits (u64) — bit-exact by
//     construction.
//   - MarshalEvents/UnmarshalEvents: an event list, columnar layout with a
//     per-blob string table — the snapshot codec, where every live
//     device-epoch record is serialized at each checkpoint.
//
// Hand-rolled fixed layouts here are ~10× cheaper than reflective JSON and
// keep checkpoint overhead from dominating ingest.

// AppendBinary appends ev's binary encoding to buf and returns the
// extended slice.
func AppendBinary(buf []byte, ev Event) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.ID))
	buf = append(buf, byte(ev.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.Device))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(ev.Day)))
	for _, s := range [...]string{string(ev.Publisher), string(ev.Advertiser), ev.Campaign, ev.Product} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.Value))
}

// DecodeBinary decodes one event from the front of buf, returning the event
// and the remaining bytes. It never panics on truncated or oversized input.
func DecodeBinary(buf []byte) (Event, []byte, error) {
	var ev Event
	if len(buf) < 8+1+8+8 {
		return ev, nil, fmt.Errorf("events: truncated event header (%d bytes)", len(buf))
	}
	ev.ID = EventID(binary.LittleEndian.Uint64(buf))
	ev.Kind = Kind(buf[8])
	ev.Device = DeviceID(binary.LittleEndian.Uint64(buf[9:]))
	ev.Day = int(int64(binary.LittleEndian.Uint64(buf[17:])))
	buf = buf[25:]
	var fields [4]string
	for i := range fields {
		if len(buf) < 4 {
			return ev, nil, fmt.Errorf("events: truncated string length")
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if n < 0 || n > len(buf) {
			return ev, nil, fmt.Errorf("events: string of %d bytes exceeds buffer", n)
		}
		fields[i] = string(buf[:n])
		buf = buf[n:]
	}
	ev.Publisher = Site(fields[0])
	ev.Advertiser = Site(fields[1])
	ev.Campaign = fields[2]
	ev.Product = fields[3]
	if len(buf) < 8 {
		return ev, nil, fmt.Errorf("events: truncated value")
	}
	ev.Value = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	return ev, buf[8:], nil
}

// MarshalEvents encodes a slice of events with a count prefix. The layout is
// columnar: each field serialized as one
// contiguous column (IDs, kinds, devices, days, string indices, value bits),
// with the four string fields deduplicated through a per-blob string table.
// Snapshot blobs hold one device-epoch record whose publishers, advertisers,
// and campaigns repeat heavily, so the table both shrinks the snapshot and
// replaces the per-event field interleaving with straight bulk column
// writes. Layout (little-endian):
//
//	u32 n
//	n × u64 IDs, n × u8 kinds, n × u64 devices, n × u64 days (two's compl.)
//	string table: u32 count, count × (u32 len + bytes)
//	4 columns of n × u32 table indices: publisher, advertiser, campaign,
//	product
//	n × u64 value bits (IEEE-754 — bit-exact by construction)
func MarshalEvents(evs []Event) []byte { return AppendEvents(nil, evs) }

// internLinearMax is the string-table size up to which AppendEvents interns
// by linear scan; a larger table switches to a map.
const internLinearMax = 16

// AppendEvents appends the MarshalEvents encoding of evs to buf. The
// snapshot path calls it once per device-epoch record — a record averages
// barely more than one event — so the string table is interned by linear
// scan over stack-resident scratch and a small record allocates nothing
// beyond buf's own growth.
func AppendEvents(buf []byte, evs []Event) []byte {
	n := len(evs)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	if n == 0 {
		return buf
	}
	for i := range evs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(evs[i].ID))
	}
	for i := range evs {
		buf = append(buf, byte(evs[i].Kind))
	}
	for i := range evs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(evs[i].Device))
	}
	for i := range evs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(evs[i].Day)))
	}
	// String table in first-appearance order (column-major: publishers, then
	// advertisers, campaigns, products), so equal inputs yield equal bytes.
	var (
		tableArr [internLinearMax]string
		colsArr  [4 * 8]uint32
		table    = tableArr[:0]
		cols     = colsArr[:0]
		index    map[string]uint32
	)
	internStr := func(s string) {
		if index == nil {
			for id, t := range table {
				if t == s {
					cols = append(cols, uint32(id))
					return
				}
			}
			if len(table) == internLinearMax {
				index = make(map[string]uint32, 2*internLinearMax)
				for id, t := range table {
					index[t] = uint32(id)
				}
			}
		} else if id, ok := index[s]; ok {
			cols = append(cols, id)
			return
		}
		if index != nil {
			index[s] = uint32(len(table))
		}
		cols = append(cols, uint32(len(table)))
		table = append(table, s)
	}
	for i := range evs {
		internStr(string(evs[i].Publisher))
	}
	for i := range evs {
		internStr(string(evs[i].Advertiser))
	}
	for i := range evs {
		internStr(evs[i].Campaign)
	}
	for i := range evs {
		internStr(evs[i].Product)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(table)))
	for _, s := range table {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	for _, id := range cols {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	for i := range evs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(evs[i].Value))
	}
	return buf
}

// UnmarshalEvents decodes a MarshalEvents blob. It never panics on truncated
// or corrupt input. Decoded string fields share the table's backing strings,
// so a restored record costs one string allocation per distinct value, not
// per event.
func UnmarshalEvents(buf []byte) ([]Event, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("events: truncated event list")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if n == 0 {
		if len(buf) != 0 {
			return nil, fmt.Errorf("events: %d trailing bytes after event list", len(buf))
		}
		return nil, nil
	}
	// Fixed columns alone need 41n bytes plus the table header; reject
	// implausible counts before allocating.
	const minPerEvent = 8 + 1 + 8 + 8 + 4*4
	if n < 0 || n > len(buf)/minPerEvent+1 {
		return nil, fmt.Errorf("events: implausible event count %d for %d bytes", n, len(buf))
	}
	out := make([]Event, n)
	if len(buf) < (8+1+8+8)*n+4 {
		return nil, fmt.Errorf("events: truncated fixed columns (%d bytes for %d events)", len(buf), n)
	}
	for i := range out {
		out[i].ID = EventID(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	buf = buf[8*n:]
	for i := range out {
		out[i].Kind = Kind(buf[i])
	}
	buf = buf[n:]
	for i := range out {
		out[i].Device = DeviceID(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	buf = buf[8*n:]
	for i := range out {
		out[i].Day = int(int64(binary.LittleEndian.Uint64(buf[8*i:])))
	}
	buf = buf[8*n:]

	tn := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if tn < 0 || tn > len(buf)/4+1 {
		return nil, fmt.Errorf("events: implausible string table of %d entries", tn)
	}
	table := make([]string, tn)
	for i := range table {
		if len(buf) < 4 {
			return nil, fmt.Errorf("events: truncated string length")
		}
		sl := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if sl < 0 || sl > len(buf) {
			return nil, fmt.Errorf("events: string of %d bytes exceeds buffer", sl)
		}
		table[i] = string(buf[:sl])
		buf = buf[sl:]
	}
	if len(buf) < 4*4*n+8*n {
		return nil, fmt.Errorf("events: truncated index or value columns (%d bytes for %d events)", len(buf), n)
	}
	str := func(off int) (string, error) {
		id := binary.LittleEndian.Uint32(buf[4*off:])
		if int(id) >= tn {
			return "", fmt.Errorf("events: string index %d outside table of %d", id, tn)
		}
		return table[id], nil
	}
	var err error
	var s string
	for i := range out {
		if s, err = str(i); err != nil {
			return nil, err
		}
		out[i].Publisher = Site(s)
		if s, err = str(n + i); err != nil {
			return nil, err
		}
		out[i].Advertiser = Site(s)
		if s, err = str(2*n + i); err != nil {
			return nil, err
		}
		out[i].Campaign = s
		if s, err = str(3*n + i); err != nil {
			return nil, err
		}
		out[i].Product = s
	}
	buf = buf[4*4*n:]
	for i := range out {
		out[i].Value = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	if len(buf) != 8*n {
		return nil, fmt.Errorf("events: %d trailing bytes after event list", len(buf)-8*n)
	}
	return out, nil
}
