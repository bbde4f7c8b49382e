package events

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encodings for events. The streaming service's durability path
// writes every event in the run format (run.go); this file holds the rest:
//
//   - DecodeBinary: one event, row layout — the reader of the formats the
//     run replaced, the records of version-1 WAL segments and the event log
//     of schema-7 snapshots, which both still restore. Layout
//     (little-endian): ID u64, Kind u8, Device u64, Day i64, four
//     length-prefixed names (u32 + bytes): Publisher, Advertiser, Campaign,
//     Product, then Value as IEEE-754 bits (u64) — bit-exact by
//     construction.
//   - MarshalEvents/UnmarshalEvents: an event list, columnar layout with a
//     per-blob string table — the codec of a snapshot head's pending
//     conversions, and of the records of schema-6 snapshots.
//
// Hand-rolled fixed layouts here are ~10× cheaper than reflective JSON and
// keep checkpoint overhead from dominating ingest.

// BinaryDay returns the day of the row-layout event at the front of buf,
// reading nothing else; ok is false when buf is shorter than the encoding's
// fixed front (ID, Kind, Device, Day).
func BinaryDay(buf []byte) (day int, ok bool) {
	if len(buf) < 8+1+8+8 {
		return 0, false
	}
	return int(int64(binary.LittleEndian.Uint64(buf[17:]))), true
}

// DecodeBinary decodes one event from the front of buf, returning the event
// and the remaining bytes. It never panics on truncated or oversized input,
// and interns the event's names only once the whole record has decoded.
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
	var fields [4][]byte
	for i := range fields {
		if len(buf) < 4 {
			return Event{}, nil, fmt.Errorf("events: truncated string length")
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if n < 0 || n > len(buf) {
			return Event{}, nil, fmt.Errorf("events: string of %d bytes exceeds buffer", n)
		}
		fields[i] = buf[:n]
		buf = buf[n:]
	}
	if len(buf) < 8 {
		return Event{}, nil, fmt.Errorf("events: truncated value")
	}
	ev.Value = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	ev.Publisher = internBytes(fields[0])
	ev.Advertiser = internBytes(fields[1])
	ev.Campaign = internBytes(fields[2])
	ev.Product = internBytes(fields[3])
	return ev, buf[8:], nil
}

// MarshalEvents encodes a slice of events with a count prefix. The layout is
// columnar: each field serialized as one
// contiguous column (IDs, kinds, devices, days, string indices, value bits),
// with the four name fields deduplicated through a per-blob string table of
// names (never symbol numbers).
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

// AppendEvents appends the MarshalEvents encoding of evs to buf.
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
	var table []Sym
	cols := make([]uint32, 0, 4*n)
	index := make(map[Sym]uint32)
	add := func(s Sym) {
		id, ok := index[s]
		if !ok {
			id, table = uint32(len(table)), append(table, s)
			index[s] = id
		}
		cols = append(cols, id)
	}
	for i := range evs {
		add(evs[i].Publisher)
	}
	for i := range evs {
		add(evs[i].Advertiser)
	}
	for i := range evs {
		add(evs[i].Campaign)
	}
	for i := range evs {
		add(evs[i].Product)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(table)))
	for _, s := range table {
		name := s.String()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
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
// or corrupt input, and interns the table's names only once the whole blob
// has validated.
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
	if len(buf) < (8+1+8+8)*n+4 {
		return nil, fmt.Errorf("events: truncated fixed columns (%d bytes for %d events)", len(buf), n)
	}
	fixed := buf
	buf = buf[(8+1+8+8)*n:]

	tn := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if tn < 0 || tn > len(buf)/4+1 {
		return nil, fmt.Errorf("events: implausible string table of %d entries", tn)
	}
	table := make([][]byte, tn)
	for i := range table {
		if len(buf) < 4 {
			return nil, fmt.Errorf("events: truncated string length")
		}
		sl := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if sl < 0 || sl > len(buf) {
			return nil, fmt.Errorf("events: string of %d bytes exceeds buffer", sl)
		}
		table[i] = buf[:sl]
		buf = buf[sl:]
	}
	if len(buf) < 4*4*n+8*n {
		return nil, fmt.Errorf("events: truncated index or value columns (%d bytes for %d events)", len(buf), n)
	}
	for off := 0; off < 4*n; off++ {
		if id := binary.LittleEndian.Uint32(buf[4*off:]); int(id) >= tn {
			return nil, fmt.Errorf("events: string index %d outside table of %d", id, tn)
		}
	}
	if len(buf) != 4*4*n+8*n {
		return nil, fmt.Errorf("events: %d trailing bytes after event list", len(buf)-4*4*n-8*n)
	}

	// The blob is valid: intern its names and fill the columns.
	syms := make([]Sym, tn)
	for i, b := range table {
		syms[i] = internBytes(b)
	}
	out := make([]Event, n)
	for i := range out {
		ev := &out[i]
		ev.ID = EventID(binary.LittleEndian.Uint64(fixed[8*i:]))
		ev.Kind = Kind(fixed[8*n+i])
		ev.Device = DeviceID(binary.LittleEndian.Uint64(fixed[9*n+8*i:]))
		ev.Day = int(int64(binary.LittleEndian.Uint64(fixed[17*n+8*i:])))
		ev.Publisher = syms[binary.LittleEndian.Uint32(buf[4*i:])]
		ev.Advertiser = syms[binary.LittleEndian.Uint32(buf[4*(n+i):])]
		ev.Campaign = syms[binary.LittleEndian.Uint32(buf[4*(2*n+i):])]
		ev.Product = syms[binary.LittleEndian.Uint32(buf[4*(3*n+i):])]
		ev.Value = math.Float64frombits(binary.LittleEndian.Uint64(buf[4*4*n+8*i:]))
	}
	return out, nil
}
