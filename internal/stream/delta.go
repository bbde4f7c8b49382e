package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/events"
)

// Snapshot payloads and their fold (DESIGN.md §8). A cadence tick does not
// serialize the whole service: the service tracks which state changed since
// the previous capture — device ledgers by mutation version over the devices
// flushed batches touched, the event store by the log of the events that
// entered it, planner streams by dirty set, results by high-water mark — and
// captures only that, chained to its parent generation by fingerprint. A
// full snapshot is the same encoder with everything dirty: every device,
// and every live event logged in one walk of the store.
//
// Payload layout (schema 7, little-endian):
//
//	u32 schema | u32 headLen | head (JSON snapHead)
//	u32 byteLen | device entries
//	u32 byteLen | event log
//	device entry: u64 device | u32 0 | u32 blobLen | blob
//	log entry:    u32 len | event (events.AppendBinary, the WAL's encoding)
//
// Device entries are strictly ascending by device and self-contained, so
// the chain's devices fold by one k-way merge that copies bytes: per device
// the newest generation's entry wins. The event log is the store's history,
// the delta's the bytes the WAL already encoded, so the chain's logs fold by
// concatenation, dropping the events below the newest head's eviction
// floor. snapChain is the single definition of what a delta means: base
// compaction writes its fold out, recovery re-records it. Schema 6, whose
// second section held key-sorted records, is still restored (by merge), and
// a run resumed from it writes a schema-7 base before its first delta.

// The two bulk sections, in payload order.
const (
	secDevices = iota
	secEvents  // the event log; schema 6's key-sorted records
	numSections
)

const entryHeaderLen = 8 + 4 + 4

// openLen reserves a u32 length prefix at the end of buf; closeLen patches
// it with the number of bytes appended since.
func openLen(buf []byte) ([]byte, int) { return append(buf, 0, 0, 0, 0), len(buf) }

func closeLen(buf []byte, mark int) {
	binary.LittleEndian.PutUint32(buf[mark:], uint32(len(buf)-mark-4))
}

// openEntry starts one section entry; the caller appends the blob and
// closes the returned mark.
func openEntry(buf []byte, key DevEpoch) ([]byte, int) {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(key.Device))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(key.Epoch)))
	return openLen(buf)
}

// appendHead starts a payload: schema, then the length-prefixed JSON head.
func appendHead(buf []byte, head *snapHead) ([]byte, error) {
	raw, err := json.Marshal(head)
	if err != nil {
		return nil, fmt.Errorf("stream: encoding snapshot head: %w", err)
	}
	buf = binary.LittleEndian.AppendUint32(buf, snapSchemaVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(raw)))
	return append(buf, raw...), nil
}

// resetDirtyTracking arms the dirty trackers with the current state as the
// baseline: the next delta capture reports exactly what changes after this
// call. On a resume it must run after restore() and before WAL replay, so
// replay-era mutations land in the first post-recovery delta. Without a
// snapshot cadence no delta is ever captured, so nothing is armed.
func (s *Service) resetDirtyTracking() {
	if s.cfg.SnapshotEveryDays == 0 {
		return
	}
	s.evlog = s.evlog[:0]
	s.plan.trackDirty()
	s.touched, s.ledgerVers = nil, make(map[events.DeviceID]uint64)
	s.fleet.Range(func(d *core.Device) bool {
		s.ledgerVers[d.ID()] = d.LedgerVersion()
		return true
	})
	s.resultsMark = len(s.run.Results)
}

// dropDirtyTracking disarms the trackers once no delta can follow (after
// the final base), so a finished service holds no dirty state.
func (s *Service) dropDirtyTracking() {
	s.evlog, s.spareLog = nil, nil
	s.plan.dirty = nil
	s.touched, s.ledgerVers = nil, nil
}

// rangeTouched calls fn, in ID order, for every device a batch flushed
// since the last capture touched — only a flushed request creates, marks or
// charges a device — whose ledger version moved since then or that is new,
// and empties the list. Unlike Fleet.Range it never stops early.
func (s *Service) rangeTouched(fn func(*core.Device) bool) {
	slices.Sort(s.touched)
	for _, id := range slices.Compact(s.touched) {
		d := s.fleet.Get(id)
		v := d.LedgerVersion()
		if last, ok := s.ledgerVers[id]; !ok || last != v {
			s.ledgerVers[id] = v
			fn(d)
		}
	}
	s.touched = s.touched[:0]
}

// logEvent appends an event that entered the store to the period's event
// log while a delta can follow: the WAL record logWAL just encoded, past its
// sequence number. WAL replay logs nothing, so it encodes the record here.
func (s *Service) logEvent(ev events.Event) {
	if s.ledgerVers != nil {
		if s.replaying {
			s.walBuf = encodeWALRecord(s.walBuf, 0, ev)
		}
		s.evlog = binary.LittleEndian.AppendUint32(s.evlog, uint32(len(s.walBuf)-8))
		s.evlog = append(s.evlog, s.walBuf[8:]...)
	}
}

// capture encodes one snapshot payload, which the service keeps no
// reference to: a full capture (delta false) holds the complete service
// state in one buffer; a delta holds what changed since the previous
// capture — the touched devices, in ID order, then the period's event log,
// handed over as the payload's second part, uncopied — and advances the
// dirty baselines. Scalars, the central ledger, and the replay-protection
// set are captured whole either way: they are small and change every day.
// Caller guarantees quiescence.
func (s *Service) capture(delta bool) (buf, log []byte, err error) {
	head := s.scalarSnap()

	// Planner cursor, in (site, product) order.
	streams := s.plan.sortedKeys
	if delta {
		streams = s.plan.drainDirty
	}
	for _, key := range streams() {
		st := s.plan.streams[key]
		head.Streams = append(head.Streams, streamSnap{
			Site:    key.site.String(),
			Product: key.product.String(),
			Epsilon: math.Float64bits(st.epsilon),
			Seq:     st.seq,
			Capped:  st.capped,
			Pending: events.MarshalEvents(st.pending),
		})
	}
	from := 0
	if delta {
		from, s.resultsMark = s.resultsMark, len(s.run.Results)
	}
	head.Results = appendResultStates(nil, s.run.Results[from:])

	if buf, err = appendHead(make([]byte, 0, s.captureHint), head); err != nil {
		return nil, nil, err
	}

	// Fleet: every created device (even ones with no initialized slots —
	// device existence is itself state) with its ledger rows and requested
	// marks; a delta keeps the touched devices whose ledger mutated since the
	// last capture, or are new.
	devices := s.fleet.Range
	if delta {
		devices = s.rangeTouched
	}
	buf, sec := openLen(buf)
	devices(func(d *core.Device) bool {
		var mark int
		buf, mark = openEntry(buf, DevEpoch{Device: d.ID()})
		buf = appendDevice(buf, d)
		closeLen(buf, mark)
		return true
	})
	closeLen(buf, sec)

	// Event store: a delta's log is the events that entered it since the
	// last capture, in arrival order, and the next period logs into the
	// buffer the writer handed back; a full capture logs every live event,
	// record by record in (device, epoch) order.
	buf, sec = openLen(buf)
	if delta {
		binary.LittleEndian.PutUint32(buf[sec:], uint32(len(s.evlog)))
		s.captureHint = len(buf) + len(buf)/8
		log, s.evlog, s.spareLog = s.evlog, s.spareLog[:0], nil
		return buf, log, nil
	}
	for _, key := range s.db.Keys() {
		for _, ev := range s.db.EpochEvents(key.Device, key.Epoch) {
			var mark int
			buf, mark = openLen(buf)
			buf = events.AppendBinary(buf, ev)
			closeLen(buf, mark)
		}
	}
	closeLen(buf, sec)
	return buf, nil, nil
}

// fullSnapshot encodes the service's complete state as one payload, on the
// calling goroutine. Caller guarantees quiescence.
func (s *Service) fullSnapshot() ([]byte, error) {
	buf, _, err := s.capture(false)
	return buf, err
}

// snapParts is one parsed payload: its schema, decoded head and raw
// sections.
type snapParts struct {
	schema uint32
	head   *snapHead
	sec    [numSections][]byte
}

// parsePayload splits and bounds-checks one payload. Section contents are
// validated by the walks over them.
func parsePayload(p []byte) (*snapParts, error) {
	if len(p) > 0 && p[0] == '{' {
		// Schemas 1–3 were one JSON document.
		var old struct {
			Schema int `json:"schema"`
		}
		_ = json.Unmarshal(p, &old) // a malformed document reports schema 0
		return nil, fmt.Errorf("stream: unsupported snapshot schema %d (JSON payload)", old.Schema)
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("stream: truncated snapshot payload (%d bytes)", len(p))
	}
	parts := &snapParts{schema: binary.LittleEndian.Uint32(p), head: new(snapHead)}
	if v := parts.schema; v != snapSchemaVersion && v != snapSchemaRecords {
		return nil, fmt.Errorf("stream: unsupported snapshot schema %d", v)
	}
	raw, rest, err := cutString(p[4:])
	if err != nil {
		return nil, fmt.Errorf("stream: snapshot head: %w", err)
	}
	if err := json.Unmarshal(raw, parts.head); err != nil {
		return nil, fmt.Errorf("stream: decoding snapshot head: %w", err)
	}
	// Only the encoder's own bytes are accepted: whatever else a lenient
	// parse lets through (unknown, reordered or repeated fields, padding) is
	// not a head this code wrote.
	if again, err := json.Marshal(parts.head); err != nil || !bytes.Equal(again, raw) {
		return nil, fmt.Errorf("stream: snapshot head is not in canonical form")
	}
	for i := range parts.sec {
		if parts.sec[i], rest, err = cutString(rest); err != nil {
			return nil, fmt.Errorf("stream: snapshot section %d: %w", i, err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("stream: %d trailing bytes after snapshot sections", len(rest))
	}
	return parts, nil
}

// snapChain is a generation chain opened for folding: every payload parsed
// (base first, then each delta in chain order, all of one schema) and the
// heads folded.
type snapChain struct {
	parts  []*snapParts
	schema uint32
	head   *snapHead
}

// openChain parses a chain's payloads and folds their heads: scalars and the
// whole-captured lists come from the newest head, planner streams overlay by
// (site, product) with the newest winning, and results append.
func openChain(payloads [][]byte) (*snapChain, error) {
	c := &snapChain{head: new(snapHead)}
	streams := make(map[[2]string]streamSnap) // by (site, product) name
	var results []resultState
	for i, payload := range payloads {
		parts, err := parsePayload(payload)
		if err != nil {
			return nil, fmt.Errorf("stream: decoding chain generation %d: %w", i, err)
		}
		if i > 0 && parts.schema != c.schema {
			return nil, fmt.Errorf("stream: chain generation %d has schema %d, its base %d", i, parts.schema, c.schema)
		}
		c.parts, c.schema = append(c.parts, parts), parts.schema
		for _, ss := range parts.head.Streams {
			streams[[2]string{ss.Site, ss.Product}] = ss
		}
		results = append(results, parts.head.Results...)
		*c.head = *parts.head
	}
	c.head.Streams = nil
	for _, key := range slices.SortedFunc(maps.Keys(streams), func(a, b [2]string) int { return slices.Compare(a[:], b[:]) }) {
		c.head.Streams = append(c.head.Streams, streams[key])
	}
	c.head.Results = results
	return c, nil
}

// merge folds one key-sorted section across the chain — the devices, or a
// schema-6 chain's records — handing emit each surviving entry in key
// order: its key, its blob, and its raw bytes (header included) for
// verbatim copy.
func (c *snapChain) merge(sec int, emit func(key DevEpoch, blob, raw []byte) error) error {
	secs := make([][]byte, len(c.parts))
	for i, p := range c.parts {
		secs[i] = p.sec[sec]
	}
	floor := events.Epoch(math.MinInt32)
	if sec == secEvents {
		floor = events.Epoch(c.head.EvictFloor)
	}
	return mergeSections(secs, floor, emit)
}

// log walks the chain's event logs, oldest generation first and each in
// its own order, handing emit every event at an epoch at or above the
// newest head's eviction floor: its epoch, its encoding, and its raw entry
// (length prefix included) for verbatim copy. Every length is bounds-checked
// against its section; an event's bytes are decoded only as far as its day.
func (c *snapChain) log(emit func(e events.Epoch, ev, raw []byte) error) error {
	days := c.head.Config.EpochDays
	if days <= 0 {
		return fmt.Errorf("stream: snapshot head has epoch length %d", days)
	}
	floor := events.Epoch(c.head.EvictFloor)
	for _, p := range c.parts {
		for rest := p.sec[secEvents]; len(rest) > 0; {
			ev, next, err := cutString(rest)
			if err != nil {
				return fmt.Errorf("stream: event log: %w", err)
			}
			day, ok := events.BinaryDay(ev)
			if !ok {
				return fmt.Errorf("stream: logged event of %d bytes", len(ev))
			}
			if e := events.EpochOfDay(day, days); e >= floor {
				if err := emit(e, ev, rest[:len(rest)-len(next)]); err != nil {
					return err
				}
			}
			rest = next
		}
	}
	return nil
}

// encode writes the folded chain out as one full payload — the compacted
// base: the devices merged, the logs concatenated above the floor.
func (c *snapChain) encode() ([]byte, error) {
	if c.schema != snapSchemaVersion {
		return nil, fmt.Errorf("stream: compaction folds schema %d chains, not %d", snapSchemaVersion, c.schema)
	}
	size := 0
	for _, p := range c.parts {
		for _, sec := range p.sec {
			size += len(sec)
		}
	}
	buf, err := appendHead(make([]byte, 0, size+size/64), c.head)
	if err != nil {
		return nil, err
	}
	buf, mark := openLen(buf)
	err = c.merge(secDevices, func(_ DevEpoch, _, raw []byte) error {
		buf = append(buf, raw...)
		return nil
	})
	closeLen(buf, mark)
	if buf, mark = openLen(buf); err == nil {
		buf, err = c.appendLog(buf)
	}
	closeLen(buf, mark)
	return buf, err
}

// appendLog appends the chain's folded event log: the logs concatenated,
// oldest first, without the events below the floor.
func (c *snapChain) appendLog(buf []byte) ([]byte, error) {
	err := c.log(func(_ events.Epoch, _, raw []byte) error {
		buf = append(buf, raw...)
		return nil
	})
	return buf, err
}

// foldChain folds a generation chain's payloads into one full payload.
func foldChain(payloads [][]byte) ([]byte, error) {
	c, err := openChain(payloads)
	if err != nil {
		return nil, err
	}
	return c.encode()
}

// secCursor walks one section's entries, validating as it goes: every
// length is bounds-checked against the bytes that remain and keys must
// strictly ascend — the property that makes the merge correct.
type secCursor struct {
	rest      []byte
	key       DevEpoch
	blob, raw []byte
	live      bool // key/blob/raw hold an entry
}

func (c *secCursor) next() error {
	if len(c.rest) == 0 {
		c.live = false
		return nil
	}
	if len(c.rest) < entryHeaderLen {
		return fmt.Errorf("stream: truncated section entry (%d bytes)", len(c.rest))
	}
	key := DevEpoch{
		Device: events.DeviceID(binary.LittleEndian.Uint64(c.rest)),
		Epoch:  events.Epoch(int32(binary.LittleEndian.Uint32(c.rest[8:]))),
	}
	n := binary.LittleEndian.Uint32(c.rest[12:])
	if uint64(n) > uint64(len(c.rest)-entryHeaderLen) {
		return fmt.Errorf("stream: entry %d/%d claims %d bytes, %d remain",
			key.Device, key.Epoch, n, len(c.rest)-entryHeaderLen)
	}
	if c.live && key.Compare(c.key) <= 0 {
		return fmt.Errorf("stream: section keys not strictly ascending at %d/%d", key.Device, key.Epoch)
	}
	end := entryHeaderLen + int(n)
	c.key, c.blob, c.raw, c.rest, c.live = key, c.rest[entryHeaderLen:end], c.rest[:end], c.rest[end:], true
	return nil
}

// mergeSections k-way merges key-sorted sections given oldest first: per
// key the newest section's entry wins, entries at epochs below floor are
// dropped, and emit sees the survivors in key order. The floor is the newest
// generation's, so an entry of that generation below it is not something a
// capture writes and is refused — which also makes folding a single payload
// the identity. No map, no sort, no per-entry decode; a chain is a handful
// of generations, so the minimum is found by scanning the cursors.
func mergeSections(secs [][]byte, floor events.Epoch, emit func(key DevEpoch, blob, raw []byte) error) error {
	cur := make([]secCursor, len(secs))
	for i := range cur {
		cur[i].rest = secs[i]
		if err := cur[i].next(); err != nil {
			return err
		}
	}
	for {
		win := -1
		for i := range cur {
			if cur[i].live && (win < 0 || cur[i].key.Compare(cur[win].key) <= 0) {
				win = i // ties go to the later, newer generation
			}
		}
		if win < 0 {
			return nil
		}
		w := cur[win]
		for i := range cur[:win+1] {
			if cur[i].live && cur[i].key == w.key {
				if err := cur[i].next(); err != nil {
					return err
				}
			}
		}
		if w.key.Epoch < floor {
			if win == len(cur)-1 {
				return fmt.Errorf("stream: entry %d/%d lies below its own generation's floor %d",
					w.key.Device, w.key.Epoch, floor)
			}
			continue
		}
		if err := emit(w.key, w.blob, w.raw); err != nil {
			return err
		}
	}
}
