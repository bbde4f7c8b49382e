package stream

import (
	"bytes"
	"cmp"
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
// flushed batches touched, the event store by the log of the events drained
// since, planner streams by dirty set and by the seq and pending count each
// had at the last capture, results by high-water mark — and captures only
// that, chained to its parent generation by fingerprint. A full snapshot is
// the same encoder with everything dirty: every device, every stream's
// pending conversions, and every live event logged in one walk of the store.
//
// Payload layout (schema 9, little-endian):
//
//	u32 schema | u32 headLen | head (JSON snapHead)
//	u32 byteLen | device entries
//	u32 byteLen | pending: runs
//	u32 byteLen | event log: runs
//	device entry: u64 device | u32 0 | u32 blobLen | blob (checkpoint.go)
//	pending run:  u32 len | entries (events/run.go)
//	log run:      u32 len | i64 lo | i64 hi | entries (events/run.go)
//
// Device entries are strictly ascending by device and self-contained, so the
// chain's devices fold by one k-way merge that copies bytes: per device the
// newest generation's entry wins.
//
// The pending section holds the planner's buffered conversions as runs, in
// the order of the head's streams, each stream owning the next Runs of them.
// A base writes one run per stream with pending conversions, all of them. A
// delta writes, for each stream dirtied since the last capture, one run: the
// conversions it gained since — it appends — or, when the stream fired since
// (its seq moved), all its pending conversions, every one of which arrived
// since — it restarts. So the chain's pending folds per stream by seq: a
// generation whose stream has the seq the fold holds appends its runs, one
// whose seq moved replaces them; compaction copies the surviving runs as
// bytes, so a compacted base may hold several runs for one stream.
//
// A run's lo and hi bound the days of its store entries (lo > hi, as
// math.MaxInt64 and math.MinInt64, when it holds only late drops). The event
// log is the store's history: a delta's runs are the bytes its WAL segment
// holds — the run logWAL encoded each drained event into, late drops
// included — and a base's one run holds every live event, epochs ascending
// and each epoch's devices in ID order. So the chain's logs fold by
// concatenating whole runs: a run wholly below the newest head's eviction
// floor is dropped, a run wholly at or above it is copied, and the one run
// that straddles it is re-encoded from its store entries at or above it.
// snapChain is the single definition of what a delta means: base
// compaction writes its fold out, recovery re-records it. Schema 8 (devices
// as fixed-width rows and requested epochs, each pending batch a columnar
// blob in the head, folded newest-wins) is still restored, and a run resumed
// from it writes a schema-9 base before its first delta.

// The bulk sections. A schema-9 payload holds them in the order devices,
// pending, events; a schema-8 one has no pending section.
const (
	secDevices = iota
	secEvents  // the event log
	secPending // the planner's pending runs
	numSections
)

const entryHeaderLen = 8 + 4 + 4

// runHeaderLen is a run's header in the event log: its length, then the
// bounds of its store entries' days.
const runHeaderLen = 4 + 8 + 8

// noDaysLo and noDaysHi are the bounds of a run without store entries.
const noDaysLo, noDaysHi = math.MaxInt64, math.MinInt64

// runWriter appends one run at a time to an event log buffer: open
// reserves the run's header, add encodes an entry, and close fills the
// header in, or takes an empty run back out.
type runWriter struct {
	enc    events.RunEncoder
	start  int // the open run's header offset; -1 when none is open
	lo, hi int // the days of its store entries
}

func (w *runWriter) open(buf []byte) []byte {
	w.enc.Reset()
	w.start, w.lo, w.hi = len(buf), noDaysLo, noDaysHi
	return append(buf, make([]byte, runHeaderLen)...)
}

func (w *runWriter) add(buf []byte, ev events.Event, dropped bool) []byte {
	if !dropped {
		w.lo, w.hi = min(w.lo, ev.Day), max(w.hi, ev.Day)
	}
	return w.enc.Append(buf, ev, dropped)
}

func (w *runWriter) close(buf []byte) []byte {
	if w.start < 0 {
		return buf
	}
	n := len(buf) - w.start - runHeaderLen
	if n == 0 {
		buf = buf[:w.start]
	} else {
		hdr := buf[w.start:]
		binary.LittleEndian.PutUint32(hdr, uint32(n))
		binary.LittleEndian.PutUint64(hdr[4:], uint64(int64(w.lo)))
		binary.LittleEndian.PutUint64(hdr[12:], uint64(int64(w.hi)))
	}
	w.start = -1
	return buf
}

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
	s.log, s.logRun.start = s.log[:0], -1
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

// openRun starts a run at the end of the event log, its first entry the
// next WAL frame's first.
func (s *Service) openRun() {
	s.log = s.logRun.open(s.log)
	s.frameStart, s.frameSeq, s.frameEntries = len(s.log), s.run.EventsIngested, 0
}

// capture encodes one snapshot payload, which the service keeps no
// reference to: a full capture (delta false) holds the complete service
// state; a delta holds what changed since the previous capture — the
// touched devices, in ID order, the dirty streams' pending runs, then the
// period's event log, its open run closed and copied in, the log itself
// truncated in place for the next period — and advances the dirty
// baselines. Scalars, the central ledger, and the replay-protection set are
// captured whole either way: they are small and change every day. Caller
// guarantees quiescence.
func (s *Service) capture(delta bool) (buf []byte, err error) {
	head := s.scalarSnap()

	// Planner cursor, in (site, product) order.
	streams := s.plan.sortedKeys
	if delta {
		streams = s.plan.drainDirty
	}
	var pending [][]events.Event
	head.Streams, pending = s.plan.capture(streams(), delta)
	from := 0
	if delta {
		from, s.resultsMark = s.resultsMark, len(s.run.Results)
	}
	head.Results = appendResultStates(nil, s.run.Results[from:])

	if buf, err = appendHead(make([]byte, 0, s.captureHint), head); err != nil {
		return nil, err
	}

	// Fleet: every created device (even ones with no initialized slots —
	// device existence is itself state) with its ledger lanes; a delta
	// keeps the touched devices whose ledger mutated since the last
	// capture, or are new.
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

	buf, sec = openLen(buf)
	buf = s.plan.appendRuns(buf, pending)
	closeLen(buf, sec)

	// Event store: a delta's log is the runs of the events drained since
	// the last capture, in drain order; a full capture logs every live event
	// as one run, record by record in (epoch, device) order.
	buf, sec = openLen(buf)
	if delta {
		s.log = s.logRun.close(s.log)
		buf = append(buf, s.log...)
		s.log = s.log[:0]
		s.captureHint = len(buf) + len(buf)/8
	} else {
		var w runWriter
		buf = w.open(buf)
		for _, evs := range s.db.Records() {
			for _, ev := range evs {
				buf = w.add(buf, ev, false)
			}
		}
		buf = w.close(buf)
	}
	closeLen(buf, sec)
	return buf, nil
}

// capture lists keys' streams as a capture writes them, beside the pending
// conversions each one's run holds (a stream without any writes no run): a
// base's all of them; a delta's those the stream gained since the last
// capture, or all of them when it fired since. A delta moves the streams'
// capture marks on.
func (p *planner) capture(keys []streamKey, delta bool) ([]streamSnap, [][]events.Event) {
	snaps := make([]streamSnap, 0, len(keys))
	var runs [][]events.Event
	for _, key := range keys {
		st := p.streams[key]
		evs := st.pending
		if delta {
			if st.seq == st.capSeq {
				evs = evs[st.capLen:]
			}
			st.capSeq, st.capLen = st.seq, len(st.pending)
		}
		ss := streamSnap{
			Site:    key.site.String(),
			Product: key.product.String(),
			Epsilon: math.Float64bits(st.epsilon),
			Seq:     st.seq,
			Capped:  st.capped,
		}
		if len(evs) > 0 {
			ss.Runs = 1
			runs = append(runs, evs)
		}
		snaps = append(snaps, ss)
	}
	return snaps, runs
}

// appendRuns appends the pending section's runs, one per list of
// conversions.
func (p *planner) appendRuns(buf []byte, runs [][]events.Event) []byte {
	for _, evs := range runs {
		var mark int
		buf, mark = openLen(buf)
		p.runEnc.Reset()
		for _, ev := range evs {
			buf = p.runEnc.Append(buf, ev, false)
		}
		closeLen(buf, mark)
	}
	return buf
}

// restore rebuilds the planner's streams from a chain's folded head: a
// schema-9 chain's pending conversions from its folded runs, an older one's
// from each stream's columnar blob.
func (p *planner) restore(c *snapChain) error {
	var dec events.RunDecoder
	runs := c.pending
	for _, ss := range c.head.Streams {
		site, product := events.Intern(ss.Site), events.Intern(ss.Product)
		adv, ok := p.advBySite[site]
		if !ok {
			return fmt.Errorf("stream: snapshot stream for unknown advertiser %s", ss.Site)
		}
		st := &streamState{
			adv:     adv,
			product: product,
			epsilon: math.Float64frombits(ss.Epsilon),
			seq:     ss.Seq,
			capped:  ss.Capped,
		}
		var err error
		if c.schema != snapSchemaVersion {
			st.pending, err = events.UnmarshalEvents(ss.Pending)
		}
		for _, run := range runs[:ss.Runs] {
			dec.Reset()
			_, err = dec.Decode(run, func(ev events.Event, dropped bool) error {
				if dropped {
					return fmt.Errorf("late drop %d among pending conversions", ev.ID)
				}
				if st.pending == nil {
					st.pending = make([]events.Event, 0, adv.BatchSize)
				}
				st.pending = append(st.pending, ev)
				return nil
			})
			if err != nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("stream: stream %s/%s: %w", ss.Site, ss.Product, err)
		}
		runs = runs[ss.Runs:]
		p.streams[streamKey{site, product}] = st
	}
	return nil
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
	order := []int{secDevices, secEvents}
	switch parts.schema {
	case snapSchemaVersion:
		order = []int{secDevices, secPending, secEvents}
	case snapSchemaRuns:
	default:
		return nil, fmt.Errorf("stream: unsupported snapshot schema %d", parts.schema)
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
	for _, i := range order {
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
// (base first, then each delta in chain order, all of one schema), the
// heads folded, and, for schema 9, the pending runs folded — pending lists
// each folded stream's runs' entries in the head's stream order, the
// stream owning the next Runs of them.
type snapChain struct {
	parts   []*snapParts
	schema  uint32
	head    *snapHead
	pending [][]byte
}

// openChain parses a chain's payloads and folds them (foldParts).
func openChain(payloads [][]byte) (*snapChain, error) {
	parts := make([]*snapParts, len(payloads))
	for i, payload := range payloads {
		var err error
		if parts[i], err = parsePayload(payload); err != nil {
			return nil, fmt.Errorf("stream: decoding chain generation %d: %w", i, err)
		}
	}
	return foldParts(parts)
}

// foldedStream is one planner stream as a chain's fold holds it: its newest
// cursor and its pending runs' entries.
type foldedStream struct {
	snap streamSnap
	runs [][]byte
}

// foldParts folds a chain's parsed payloads: scalars and the
// whole-captured lists come from the newest head, results append, and
// planner streams fold by (site, product) — in schema 8 the newest
// cursor wins, pending blob and all; in schema 9 the newest cursor wins and
// its runs append to the stream's when its seq is the one the fold holds,
// and replace them when the seq moved.
func foldParts(parts []*snapParts) (*snapChain, error) {
	c := &snapChain{parts: parts, head: new(snapHead)}
	streams := make(map[[2]string]*foldedStream) // by (site, product) name
	var results []resultState
	for i, p := range parts {
		if i > 0 && p.schema != c.schema {
			return nil, fmt.Errorf("stream: chain generation %d has schema %d, its base %d", i, p.schema, c.schema)
		}
		c.schema = p.schema
		runs, err := cutRuns(p)
		if err != nil {
			return nil, fmt.Errorf("stream: chain generation %d: %w", i, err)
		}
		for j, ss := range p.head.Streams {
			key := [2]string{ss.Site, ss.Product}
			if j > 0 && compareStreams(p.head.Streams[j-1], ss) >= 0 {
				return nil, fmt.Errorf("stream: chain generation %d: streams not strictly ascending at %s/%s", i, ss.Site, ss.Product)
			}
			f := streams[key]
			if f == nil {
				f = new(foldedStream)
				streams[key] = f
			} else if f.snap.Seq != ss.Seq {
				f.runs = nil // the stream fired since: its runs restart
			}
			f.runs = append(f.runs, runs[:ss.Runs]...)
			runs = runs[ss.Runs:]
			f.snap = ss
			f.snap.Runs = len(f.runs)
		}
		results = append(results, p.head.Results...)
		*c.head = *p.head
	}
	c.head.Streams = nil
	for _, f := range slices.SortedFunc(maps.Values(streams), func(a, b *foldedStream) int { return compareStreams(a.snap, b.snap) }) {
		c.head.Streams = append(c.head.Streams, f.snap)
		c.pending = append(c.pending, f.runs...)
	}
	c.head.Results = results
	return c, nil
}

// compareStreams orders stream cursors by (site, product) names, the order
// a capture writes them in.
func compareStreams(a, b streamSnap) int {
	return cmp.Or(cmp.Compare(a.Site, b.Site), cmp.Compare(a.Product, b.Product))
}

// cutRuns splits a payload's pending section into its runs' entries,
// checking that its head's streams own every run and that the head's
// fields are the ones its schema writes.
func cutRuns(p *snapParts) ([][]byte, error) {
	owned := 0
	for _, ss := range p.head.Streams {
		switch {
		case ss.Runs < 0 || ss.Runs > len(p.sec[secPending]):
			return nil, fmt.Errorf("stream %s/%s claims %d pending runs", ss.Site, ss.Product, ss.Runs)
		case p.schema == snapSchemaVersion && ss.Pending != nil:
			return nil, fmt.Errorf("stream %s/%s carries a pending blob", ss.Site, ss.Product)
		case p.schema != snapSchemaVersion && ss.Runs != 0:
			return nil, fmt.Errorf("schema-%d stream %s/%s claims pending runs", p.schema, ss.Site, ss.Product)
		}
		owned += ss.Runs
	}
	var runs [][]byte
	for rest := p.sec[secPending]; len(rest) > 0; {
		run, next, err := cutString(rest)
		if err == nil && len(run) == 0 {
			err = fmt.Errorf("empty run")
		}
		if err != nil {
			return nil, fmt.Errorf("pending section: %w", err)
		}
		runs, rest = append(runs, run), next
	}
	if len(runs) != owned {
		return nil, fmt.Errorf("pending section holds %d runs, its streams %d", len(runs), owned)
	}
	return runs, nil
}

// merge folds the devices section across the chain, handing emit each
// surviving entry in key order: its key, its blob, and its raw bytes
// (header included) for verbatim copy.
func (c *snapChain) merge(emit func(key DevEpoch, blob, raw []byte) error) error {
	secs := make([][]byte, len(c.parts))
	for i, p := range c.parts {
		secs[i] = p.sec[secDevices]
	}
	return mergeSections(secs, emit)
}

// runs walks the chain's event logs, oldest generation first and each run
// in order, handing emit each run's header fields, entries and raw bytes
// (header included) for verbatim copy. Every length is bounds-checked
// against its section.
func (c *snapChain) runs(emit func(lo, hi int, entries, raw []byte) error) error {
	for _, p := range c.parts {
		for rest := p.sec[secEvents]; len(rest) > 0; {
			if len(rest) < runHeaderLen {
				return fmt.Errorf("stream: event log: %d bytes after the last run", len(rest))
			}
			n := binary.LittleEndian.Uint32(rest)
			if uint64(n) > uint64(len(rest)-runHeaderLen) {
				return fmt.Errorf("stream: event log: run of %d bytes exceeds its %d-byte section", n, len(rest)-runHeaderLen)
			}
			lo := int(int64(binary.LittleEndian.Uint64(rest[4:])))
			hi := int(int64(binary.LittleEndian.Uint64(rest[12:])))
			end := runHeaderLen + int(n)
			if err := emit(lo, hi, rest[runHeaderLen:end], rest[:end]); err != nil {
				return err
			}
			rest = rest[end:]
		}
	}
	return nil
}

// floorEpochs reports, for a run whose store entries' days lie in
// [lo, hi], whether every one of them is below the floor and whether every
// one is at or above it.
func floorEpochs(lo, hi, days int, floor events.Epoch) (below, above bool) {
	if lo > hi {
		return true, false
	}
	return events.EpochOfDay(hi, days) < floor, events.EpochOfDay(lo, days) >= floor
}

// decodeRun decodes one run of the event log, handing emit each store entry
// at an epoch at or above floor, and checks its header's day bounds against
// its entries.
func decodeRun(dec *events.RunDecoder, lo, hi, days int, floor events.Epoch, entries []byte,
	emit func(e events.Epoch, ev events.Event)) error {
	dec.Reset()
	gotLo, gotHi := noDaysLo, noDaysHi
	_, err := dec.Decode(entries, func(ev events.Event, dropped bool) error {
		if !dropped {
			gotLo, gotHi = min(gotLo, ev.Day), max(gotHi, ev.Day)
			if e := events.EpochOfDay(ev.Day, days); e >= floor {
				emit(e, ev)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream: event log: %w", err)
	}
	if gotLo != lo || gotHi != hi {
		return fmt.Errorf("stream: run header bounds days [%d, %d], its entries [%d, %d]", lo, hi, gotLo, gotHi)
	}
	return nil
}

// encode writes the folded chain out as one full payload — the compacted
// base: the devices merged, the streams' folded pending runs, the logs'
// runs concatenated above the floor.
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
	err = c.merge(func(_ DevEpoch, _, raw []byte) error {
		buf = append(buf, raw...)
		return nil
	})
	closeLen(buf, mark)
	buf, mark = openLen(buf)
	buf = c.appendPending(buf)
	closeLen(buf, mark)
	if buf, mark = openLen(buf); err == nil {
		buf, err = c.appendLog(buf)
	}
	closeLen(buf, mark)
	return buf, err
}

// appendPending appends the chain's folded pending section: every stream's
// runs, copied as bytes, in stream order.
func (c *snapChain) appendPending(buf []byte) []byte {
	for _, run := range c.pending {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(run)))
		buf = append(buf, run...)
	}
	return buf
}

// appendLog appends the chain's folded event log: the runs concatenated,
// oldest first, without those wholly below the newest head's eviction
// floor, and the run that straddles it re-encoded from its store entries at
// or above it.
func (c *snapChain) appendLog(buf []byte) ([]byte, error) {
	days := c.head.Config.EpochDays
	if days <= 0 {
		return nil, fmt.Errorf("stream: snapshot head has epoch length %d", days)
	}
	floor := events.Epoch(c.head.EvictFloor)
	var dec events.RunDecoder
	var w runWriter
	err := c.runs(func(lo, hi int, entries, raw []byte) error {
		switch below, above := floorEpochs(lo, hi, days, floor); {
		case below:
			return nil
		case above:
			buf = append(buf, raw...)
			return nil
		}
		buf = w.open(buf)
		err := decodeRun(&dec, lo, hi, days, floor, entries, func(_ events.Epoch, ev events.Event) {
			buf = w.add(buf, ev, false)
		})
		buf = w.close(buf)
		return err
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
// key the newest section's entry wins, and emit sees the survivors in key
// order, so folding a single payload is the identity. No map, no sort, no
// per-entry decode; a chain is a handful of generations, so the minimum is
// found by scanning the cursors.
func mergeSections(secs [][]byte, emit func(key DevEpoch, blob, raw []byte) error) error {
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
		if err := emit(w.key, w.blob, w.raw); err != nil {
			return err
		}
	}
}
