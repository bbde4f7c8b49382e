package events

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The run codec: the one encoding of an admitted event on disk. A WAL
// segment is one run, cut into frames at group commits; a delta's event log
// is the run its WAL segment holds; a base logs every live event as one run.
//
// A run is a self-contained sequence of entries. Each entry is:
//
//	tag    u8: bit 7 late drop, bit 6 value present, bits 0–5 the kind
//	       (63: the kind is the next byte, itself ≥ 63)
//	ID     zigzag varint of ID − the previous entry's ID (0 before the first)
//	Device uvarint
//	Day    zigzag varint of Day − the previous entry's Day (0 before the first)
//	names  Publisher, Advertiser, Campaign, Product: each a uvarint, i+1 for
//	       the run's i-th name, or 0 for a new name — uvarint length, then
//	       the bytes — which becomes the run's next index
//	Value  u64 IEEE-754 bits, little-endian, present iff the bits are not 0
//
// A name is written once per run and a symbol number never reaches the
// disk, so the bytes do not depend on the process that wrote them. Every
// field has exactly one encoding — minimal varints, a name defined once,
// value bits present iff non-zero — so a run that decodes re-encodes to the
// same bytes.

const (
	runTagDrop    = 0x80
	runTagValue   = 0x40
	runTagKindEsc = 0x3f
)

// RunEncoder appends entries to a run. Its name table is dense over symbol
// numbers, so finding a name's run index is one slice read. The zero value
// is an encoder at the start of a run.
type RunEncoder struct {
	index   []uint32 // by symbol number: the name's run index + 1, 0 if not yet in the run
	names   []Sym    // the run's names, in index order
	prevID  EventID
	prevDay int
}

// Reset starts a new run.
func (r *RunEncoder) Reset() {
	for _, s := range r.names {
		r.index[s.n] = 0
	}
	r.names = r.names[:0]
	r.prevID, r.prevDay = 0, 0
}

// Append appends ev's entry to buf and returns the extended slice; dropped
// flags a late drop.
func (r *RunEncoder) Append(buf []byte, ev Event, dropped bool) []byte {
	bits := math.Float64bits(ev.Value)
	tag := byte(0)
	if dropped {
		tag |= runTagDrop
	}
	if bits != 0 {
		tag |= runTagValue
	}
	if ev.Kind < runTagKindEsc {
		buf = append(buf, tag|byte(ev.Kind))
	} else {
		buf = append(buf, tag|runTagKindEsc, byte(ev.Kind))
	}
	buf = binary.AppendUvarint(buf, zigzag(int64(ev.ID-r.prevID)))
	buf = binary.AppendUvarint(buf, uint64(ev.Device))
	buf = binary.AppendUvarint(buf, zigzag(int64(ev.Day-r.prevDay)))
	r.prevID, r.prevDay = ev.ID, ev.Day
	buf = r.appendName(buf, ev.Publisher)
	buf = r.appendName(buf, ev.Advertiser)
	buf = r.appendName(buf, ev.Campaign)
	buf = r.appendName(buf, ev.Product)
	if bits != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, bits)
	}
	return buf
}

// appendName appends s as a reference to its run index, defining it inline
// on its first use in the run.
func (r *RunEncoder) appendName(buf []byte, s Sym) []byte {
	if int(s.n) >= len(r.index) {
		r.index = append(r.index, make([]uint32, int(s.n)+1-len(r.index)+len(r.index)/2)...)
	}
	if i := r.index[s.n]; i != 0 {
		return binary.AppendUvarint(buf, uint64(i))
	}
	r.names = append(r.names, s)
	r.index[s.n] = uint32(len(r.names))
	name := s.String()
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	return append(buf, name...)
}

// RunDecoder decodes a run in pieces — a WAL segment's frames, or a
// snapshot's run whole — carrying the name table and the previous ID and
// day from one piece to the next. The zero value is a decoder at the start
// of a run.
type RunDecoder struct {
	syms    []Sym
	defined map[string]struct{} // the run's names, to refuse a second definition
	prevID  EventID
	prevDay int
	// pending holds the names the piece being checked defines.
	pending [][]byte
}

// Reset starts a new run.
func (d *RunDecoder) Reset() {
	d.syms, d.pending = d.syms[:0], d.pending[:0]
	clear(d.defined)
	d.prevID, d.prevDay = 0, 0
}

// ErrRun is wrapped by every error reporting bytes that are not a run's
// entries.
var ErrRun = errors.New("events: malformed run")

// runEntry is one entry parsed from a run, its names as run indexes.
type runEntry struct {
	ev      Event
	dropped bool
	names   [4]uint64
}

// Decode decodes buf, the next entries of the run, and hands fn each in
// order. It checks every entry of buf before it interns a name or calls fn,
// so a refused piece interns nothing and leaves the decoder as it was. An
// error from fn stops the walk and is returned as is. It returns the number
// of entries handed to fn.
func (d *RunDecoder) Decode(buf []byte, fn func(ev Event, dropped bool) error) (int, error) {
	if err := d.check(buf); err != nil {
		return 0, err
	}
	defined := uint64(len(d.syms))
	for _, name := range d.pending {
		d.syms = append(d.syms, internBytes(name))
	}
	d.pending = d.pending[:0]
	n := 0
	for len(buf) > 0 {
		var e runEntry
		buf, _ = d.parse(buf, &e, &defined, nil)
		e.ev.Publisher = d.syms[e.names[0]]
		e.ev.Advertiser = d.syms[e.names[1]]
		e.ev.Campaign = d.syms[e.names[2]]
		e.ev.Product = d.syms[e.names[3]]
		if err := fn(e.ev, e.dropped); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// check walks buf without interning, collecting the names it defines in
// pending and leaving the ID and day positions where it found them for the
// second walk. On failure the decoder is as it was.
func (d *RunDecoder) check(buf []byte) error {
	if d.defined == nil {
		d.defined = make(map[string]struct{})
	}
	prevID, prevDay := d.prevID, d.prevDay
	defined := uint64(len(d.syms))
	var err error
	for rest := buf; len(rest) > 0 && err == nil; {
		var e runEntry
		rest, err = d.parse(rest, &e, &defined, func(name []byte) error {
			if _, ok := d.defined[string(name)]; ok {
				return fmt.Errorf("%w: name %q defined twice", ErrRun, name)
			}
			d.defined[string(name)] = struct{}{}
			d.pending = append(d.pending, name)
			return nil
		})
	}
	d.prevID, d.prevDay = prevID, prevDay
	if err != nil {
		for _, name := range d.pending {
			delete(d.defined, string(name))
		}
		d.pending = d.pending[:0]
	}
	return err
}

// parse decodes the entry at the front of buf into e and returns the bytes
// after it; *defined counts the run's names so far, and the entry's
// definitions add to it. With define set it checks the entry, calling
// define for each name the entry defines; without, it trusts a walk check
// already passed.
func (d *RunDecoder) parse(buf []byte, e *runEntry, defined *uint64, define func([]byte) error) ([]byte, error) {
	tag := buf[0]
	buf = buf[1:]
	e.dropped = tag&runTagDrop != 0
	e.ev.Kind = Kind(tag & runTagKindEsc)
	if e.ev.Kind == runTagKindEsc {
		if len(buf) == 0 || buf[0] < runTagKindEsc {
			return nil, fmt.Errorf("%w: bad escaped kind", ErrRun)
		}
		e.ev.Kind, buf = Kind(buf[0]), buf[1:]
	}
	var v [3]uint64
	for i := range v {
		var n int
		if v[i], n = uvarint(buf); n <= 0 {
			return nil, fmt.Errorf("%w: bad varint", ErrRun)
		}
		buf = buf[n:]
	}
	e.ev.ID = d.prevID + EventID(unzigzag(v[0]))
	e.ev.Device = DeviceID(v[1])
	e.ev.Day = d.prevDay + int(unzigzag(v[2]))
	d.prevID, d.prevDay = e.ev.ID, e.ev.Day
	for i := range e.names {
		ref, n := uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad name reference", ErrRun)
		}
		buf = buf[n:]
		if ref != 0 {
			if ref > *defined {
				return nil, fmt.Errorf("%w: name index %d of %d defined", ErrRun, ref-1, *defined)
			}
			e.names[i] = ref - 1
			continue
		}
		size, n := uvarint(buf)
		if n <= 0 || size > uint64(len(buf)-n) {
			return nil, fmt.Errorf("%w: bad name length", ErrRun)
		}
		name := buf[n : n+int(size)]
		buf = buf[n+int(size):]
		if define != nil {
			if err := define(name); err != nil {
				return nil, err
			}
		}
		e.names[i] = *defined
		*defined++
	}
	e.ev.Value = 0
	if tag&runTagValue != 0 {
		if len(buf) < 8 {
			return nil, fmt.Errorf("%w: truncated value", ErrRun)
		}
		bits := binary.LittleEndian.Uint64(buf)
		if bits == 0 {
			return nil, fmt.Errorf("%w: zero value written out", ErrRun)
		}
		e.ev.Value, buf = math.Float64frombits(bits), buf[8:]
	}
	return buf, nil
}

// zigzag maps signed to unsigned so small magnitudes encode short.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarint decodes a minimally encoded uvarint from the front of b, returning
// the value and its length, or a length ≤ 0 for truncated, overlong or
// overflowing input.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	var x uint64
	var s uint
	for i, c := range b {
		if i == binary.MaxVarintLen64 {
			return 0, -1
		}
		if c < 0x80 {
			if c == 0 || i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, -1
			}
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
