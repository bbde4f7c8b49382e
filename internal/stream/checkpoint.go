package stream

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/events"
)

// Crash-safe checkpoint/restore for the streaming service (DESIGN.md §8).
//
// The durable state is a chain of snapshot generations (a base plus
// incremental deltas, see delta.go) and numbered write-ahead-log segments,
// all owned by internal/checkpoint's CRC-guarded formats:
//
//   - A base captures the service's complete state at a day boundary:
//     every device's budget-ledger lanes (slots and the requested marks
//     beside them), every live event of the event store, the incremental
//     planner's cursor
//     (per-stream pending conversions, sequence numbers, caps), the
//     aggregation service's nonce watermark and consumed set,
//     both noise-stream RNG states, the central ledger (IPA-like runs),
//     and the run's results and accumulators. Scalar floats are serialized
//     as IEEE-754 bit patterns, so restore is bit-exact by construction
//     (including the NaN RMSRE of rejected queries).
//
//   - The WAL logs every drained event ahead of applying it, one run per
//     segment (events/run.go) cut into frames at group commits; an entry's
//     global ingest sequence number is its frame's first plus its place.
//
// Recovery = truncate + deterministic replay: ResumeFrom restores the
// snapshot, replays the WAL's events through the ordinary ingest path
// (re-executing any day flush the replay crosses — same ledger state, same
// RNG positions, so the same charges and noise draws), and then Serve skips
// the source prefix the durable state already covers. Work the crashed
// process did after its last durable write is simply re-done from the same
// pre-state, which is why nothing is ever double-charged: the in-memory
// effects of that work died with the process.

// snapSchemaVersion guards the snapshot payload layout (the file framing has
// its own version, checkpoint.FormatVersion). v2: event blobs switched from
// the row codec to the columnar events.MarshalEvents layout — a v1 snapshot
// must be refused up front, not fed to the incompatible decoder. v3: devices
// carry their ledger denial counters, so the budget-drain telemetry survives
// recovery, and snapshots may be deltas folded over a base generation. v4:
// the payload is no longer one JSON document — a small JSON head is followed
// by key-sorted binary sections (delta.go), so a chain folds by byte copy
// and restores without materializing it. v5: the requested marks ride in
// each device's blob, beside the ledger slots they describe, and the third
// section that held them is gone. v6: ledger slots no longer carry a
// capacity (the fingerprint pins ε^G), and the head lost the keys only the
// retired filter-release mode or the retired ingest queue wrote. v7: the
// second section is the event log, not key-sorted records. v8: the event log
// is a sequence of runs (events/run.go), a delta's the bytes its WAL segment
// holds. Restore still reads schemas 6 (snapSchemaRecords) and 7
// (snapSchemaEvents), which compaction never sees.
const snapSchemaVersion, snapSchemaEvents, snapSchemaRecords = 8, 7, 6

// snapConfig is the scenario fingerprint stored in every snapshot. Resuming
// under a different scenario would silently diverge from the original run,
// so ResumeFrom refuses mismatches. Parallelism is execution-only and
// excluded: results are invariant to it. Policy names the on-device loss
// policy when it is not Cookie Monster's, so the heads of Cookie Monster and
// IPA-like runs read as they did before the key existed.
type snapConfig struct {
	EpochDays            int     `json:"epochDays"`
	WindowDays           int     `json:"windowDays"`
	EpsilonG             uint64  `json:"epsilonGBits"`
	CalibrationAlpha     float64 `json:"calAlpha"`
	CalibrationBeta      float64 `json:"calBeta"`
	FixedEpsilon         uint64  `json:"fixedEpsilonBits"`
	Bias                 bool    `json:"bias"`
	BiasLastTouch        bool    `json:"biasLastTouch"`
	BiasKappa            uint64  `json:"biasKappaBits"`
	Seed                 uint64  `json:"seed"`
	MaxQueriesPerProduct int     `json:"maxQueries"`
	Central              bool    `json:"central"`
	Policy               string  `json:"policy,omitempty"`
	LatePolicy           int     `json:"latePolicy"`
	Dataset              string  `json:"dataset"`
}

func (s *Service) snapConfig() snapConfig {
	sc := snapConfig{
		EpochDays:            s.cfg.EpochDays,
		WindowDays:           s.cfg.WindowDays,
		EpsilonG:             math.Float64bits(s.cfg.EpsilonG),
		CalibrationAlpha:     s.cfg.Calibration.Alpha,
		CalibrationBeta:      s.cfg.Calibration.Beta,
		FixedEpsilon:         math.Float64bits(s.cfg.FixedEpsilon),
		Seed:                 s.cfg.Seed,
		MaxQueriesPerProduct: s.cfg.MaxQueriesPerProduct,
		Central:              s.cfg.System == IPALike,
		LatePolicy:           int(s.cfg.LatePolicy),
		Dataset:              s.meta.Name,
	}
	if name := s.cfg.Policy.Name(); !sc.Central && name != (core.CookieMonsterPolicy{}).Name() {
		sc.Policy = name
	}
	if s.cfg.Bias != nil {
		sc.Bias = true
		sc.BiasLastTouch = s.cfg.Bias.LastTouch
		sc.BiasKappa = math.Float64bits(s.cfg.Bias.Kappa)
	}
	return sc
}

// The devices section holds one self-contained blob per device (layout and
// framing in delta.go). Hand-rolled fixed layouts here: the fleet's slot
// table and the event store dominate a snapshot's bytes, and reflective
// encoding there would dominate its cost.

// appendDevice packs one device's budget state: the ledger's lifetime denial
// counter (u64 — pure telemetry, but telemetry the hostile-traffic scenarios
// assert on, so it must survive recovery like any other state), then a u32
// slot count and per slot a length-prefixed querier string, the epoch (u32,
// two's complement), and the consumed budget as IEEE-754 bits. The rest of the
// blob is the requested marks, exactly as RangeRequested yields them: per
// marked epoch the epoch (u32), a u32 querier count and the length-prefixed
// queriers in name order.
func appendDevice(buf []byte, d *core.Device) []byte {
	rows := d.Ledger()
	buf = binary.LittleEndian.AppendUint64(buf, d.BudgetDenials())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	var q string
	for i, r := range rows {
		if i == 0 || r.Querier != rows[i-1].Querier {
			q = r.Querier.String() // rows come grouped by querier
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(q)))
		buf = append(buf, q...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(r.Epoch)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Consumed))
	}
	d.RangeRequested(func(e events.Epoch, queriers []events.Site, _ []float64) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(e)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(queriers)))
		for _, s := range queriers {
			q := s.String()
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(q)))
			buf = append(buf, q...)
		}
	})
	return buf
}

// decodeDevice walks an appendDevice blob: it returns the denial counter,
// streams the ledger slots into row and then the requested marks into mark.
func decodeDevice(buf []byte, sites siteIntern,
	row func(q events.Site, e events.Epoch, consumed float64) error,
	mark func(q events.Site, e events.Epoch) error) (denials uint64, err error) {
	if len(buf) < 12 {
		return 0, fmt.Errorf("stream: truncated device state")
	}
	denials = binary.LittleEndian.Uint64(buf)
	n := binary.LittleEndian.Uint32(buf[8:])
	buf = buf[12:]
	for ; n > 0; n-- {
		q, rest, err := cutString(buf)
		if err != nil || len(rest) < 12 {
			return 0, fmt.Errorf("stream: truncated ledger slot")
		}
		e := events.Epoch(int32(binary.LittleEndian.Uint32(rest)))
		consumed := math.Float64frombits(binary.LittleEndian.Uint64(rest[4:]))
		buf = rest[12:]
		if err := row(sites.site(q), e, consumed); err != nil {
			return 0, err
		}
	}
	for len(buf) > 0 {
		if len(buf) < 8 {
			return 0, fmt.Errorf("stream: truncated requested epoch")
		}
		e := events.Epoch(int32(binary.LittleEndian.Uint32(buf)))
		n, buf = binary.LittleEndian.Uint32(buf[4:]), buf[8:]
		for ; n > 0; n-- {
			q, rest, err := cutString(buf)
			if err != nil {
				return 0, fmt.Errorf("stream: truncated requested querier")
			}
			buf = rest
			if err := mark(sites.site(q), e); err != nil {
				return 0, err
			}
		}
	}
	return denials, nil
}

// cutString splits a u32-length-prefixed byte string off the front of buf.
func cutString(buf []byte) (str, rest []byte, err error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("stream: truncated length prefix")
	}
	n := binary.LittleEndian.Uint32(buf)
	if uint64(n) > uint64(len(buf)-4) {
		return nil, nil, fmt.Errorf("stream: %d-byte field exceeds its %d-byte container", n, len(buf)-4)
	}
	return buf[4 : 4+n], buf[4+n:], nil
}

// siteIntern caches querier symbols across a restore: the bulk sections
// repeat a handful of site names a million times over, and the map lookup
// by byte slice allocates nothing and takes no lock.
type siteIntern map[string]events.Site

func (m siteIntern) site(b []byte) events.Site {
	if s, ok := m[string(b)]; ok {
		return s
	}
	s := events.Intern(string(b))
	m[s.String()] = s
	return s
}

// streamSnap is one query stream's planner cursor.
type streamSnap struct {
	Site    string `json:"site"`
	Product string `json:"product"`
	Epsilon uint64 `json:"epsilonBits"`
	Seq     int    `json:"seq"`
	Capped  bool   `json:"capped"`
	Pending []byte `json:"pending,omitempty"`
}

// resultState is one released query result, floats as bit patterns.
type resultState struct {
	Querier        string `json:"querier"`
	Product        string `json:"product"`
	Index          int    `json:"index"`
	Batch          int    `json:"batch"`
	Epsilon        uint64 `json:"epsilonBits"`
	Executed       bool   `json:"executed"`
	Truth          uint64 `json:"truthBits"`
	Estimate       uint64 `json:"estimateBits"`
	RMSRE          uint64 `json:"rmsreBits"`
	FireDay        int    `json:"fireDay"`
	DeniedReports  int    `json:"denied"`
	BiasedReports  int    `json:"biased"`
	BiasEstimate   uint64 `json:"biasEstimateBits"`
	FirstEpoch     int32  `json:"firstEpoch"`
	LastEpoch      int32  `json:"lastEpoch"`
	AvgBudgetAfter uint64 `json:"avgBudgetAfterBits"`
}

// centralState is one initialized slot of the central (IPA-like) ledger.
type centralState struct {
	Querier  string `json:"q"`
	Epoch    int32  `json:"e"`
	Consumed uint64 `json:"c"`
}

// dropMarkState is one device's late-drop admission mark (see
// Service.dropMarks): a durable admission decision the event store cannot
// carry, persisted so external dedupe cursors survive a snapshot that
// subsumes the WAL.
type dropMarkState struct {
	Device uint64 `json:"d"`
	Day    int    `json:"day"`
	ID     uint64 `json:"id"`
}

// snapHead is the payload's head: everything a snapshot carries that is not
// one of the two bulk sections. It is a few KB, so it stays JSON. Scalars,
// drop marks, replay protection, noise streams and the central ledger are
// captured whole by every generation; Streams and Results carry only what
// changed in a delta (foldHeads overlays and appends them).
type snapHead struct {
	Config snapConfig `json:"config"`

	// Day clock and ingest cursor.
	CurDay         int   `json:"curDay"`
	Started        bool  `json:"started"`
	EventsIngested int   `json:"eventsIngested"`
	EventsDropped  int   `json:"eventsDropped,omitempty"`
	NextIndex      int   `json:"nextIndex"`
	EvictFloor     int32 `json:"evictFloor"`
	LastSnapDay    int   `json:"lastSnapDay"`
	// DropMarks are the per-device late-drop admission marks, captured
	// whole (the map holds at most one entry per device, and only while
	// that device's newest admission was a drop).
	DropMarks []dropMarkState `json:"dropMarks,omitempty"`

	// Replay protection and noise streams.
	NonceFloor   uint64     `json:"nonceFloor"`
	AggWatermark uint64     `json:"aggWatermark"`
	AggSeen      []uint64   `json:"aggSeen,omitempty"`
	AggNoise     [4]uint64  `json:"aggNoise"`
	IPANoise     *[4]uint64 `json:"ipaNoise,omitempty"`

	// Budget state outside the devices section.
	Central []centralState `json:"central,omitempty"`

	// Planner cursor and released results.
	Streams []streamSnap  `json:"streams,omitempty"`
	Results []resultState `json:"results,omitempty"`

	// Run accumulators and telemetry. Durability depends on scheduling, not
	// on the trace: it rides along so a resumed run reports its whole
	// history, and stays out of every digest.
	TotalConsumed       uint64          `json:"totalConsumedBits"`
	PeakResidentRecords int             `json:"peakResidentRecords"`
	EvictedRecords      int             `json:"evictedRecords"`
	RetiredNonces       int             `json:"retiredNonces"`
	Durability          DurabilityStats `json:"durability"`
}

// decodeWALRecord parses one record of a version-1 WAL segment, one per
// event: its global ingest sequence number (u64, little-endian), then the
// event in the row layout events.DecodeBinary reads.
func decodeWALRecord(rec []byte) (seq int, ev events.Event, err error) {
	if len(rec) < 8 {
		return 0, ev, fmt.Errorf("stream: truncated wal record (%d bytes)", len(rec))
	}
	seq = int(int64(binary.LittleEndian.Uint64(rec)))
	ev, rest, err := events.DecodeBinary(rec[8:])
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("stream: %d trailing bytes in wal record", len(rest))
	}
	return seq, ev, err
}

// scalarSnap captures everything a snapshot carries whole regardless of
// representation: the day clock, cursors, telemetry accumulators, noise
// streams, replay protection, and the central ledger.
func (s *Service) scalarSnap() *snapHead {
	snap := &snapHead{
		Config:         s.snapConfig(),
		CurDay:         s.curDay,
		Started:        s.started,
		EventsIngested: s.run.EventsIngested,
		EventsDropped:  s.run.EventsDropped,
		NextIndex:      s.nextIndex,
		EvictFloor:     int32(s.evictFloor),
		LastSnapDay:    s.lastSnapDay,

		NonceFloor: uint64(core.NonceFloor()),
		AggNoise:   s.aggNoise.State(),

		TotalConsumed:       math.Float64bits(s.run.TotalConsumed),
		PeakResidentRecords: s.run.PeakResidentRecords,
		EvictedRecords:      s.run.EvictedRecords,
		RetiredNonces:       s.run.RetiredNonces,
		Durability:          s.run.Durability,
	}

	for dev, m := range s.dropMarks {
		snap.DropMarks = append(snap.DropMarks, dropMarkState{
			Device: uint64(dev), Day: m.Day, ID: uint64(m.ID),
		})
	}
	slices.SortFunc(snap.DropMarks, func(a, b dropMarkState) int {
		return cmp.Compare(a.Device, b.Device)
	})

	watermark, seen := s.agg.SnapshotNonces()
	snap.AggWatermark = uint64(watermark)
	for _, n := range seen {
		snap.AggSeen = append(snap.AggSeen, uint64(n))
	}
	if s.ipaNoise != nil {
		st := s.ipaNoise.State()
		snap.IPANoise = &st
	}

	if s.central != nil {
		for _, row := range s.central.Rows() {
			snap.Central = append(snap.Central, centralState{
				Querier:  row.Querier.String(),
				Epoch:    int32(row.Epoch),
				Consumed: math.Float64bits(row.Consumed),
			})
		}
	}
	return snap
}

// appendResultStates converts released results to their persisted form.
func appendResultStates(dst []resultState, results []Result) []resultState {
	for _, res := range results {
		dst = append(dst, resultState{
			Querier:        res.Querier.String(),
			Product:        res.Product.String(),
			Index:          res.Index,
			Batch:          res.Batch,
			Epsilon:        math.Float64bits(res.Epsilon),
			Executed:       res.Executed,
			Truth:          math.Float64bits(res.Truth),
			Estimate:       math.Float64bits(res.Estimate),
			RMSRE:          math.Float64bits(res.RMSRE),
			FireDay:        res.FireDay,
			DeniedReports:  res.DeniedReports,
			BiasedReports:  res.BiasedReports,
			BiasEstimate:   math.Float64bits(res.BiasEstimate),
			FirstEpoch:     int32(res.FirstEpoch),
			LastEpoch:      int32(res.LastEpoch),
			AvgBudgetAfter: math.Float64bits(res.AvgBudgetAfter),
		})
	}
	return dst
}

// errReplayGap stops WAL replay cleanly at a record whose sequence number
// is not the ingest cursor — a segment lost records to corruption
// (bit-flip, lost tail). Everything from the cursor on is re-read from the
// deterministic source instead.
var errReplayGap = errors.New("stream: wal sequence gap")

// ResumeFrom rebuilds a service from dir's durable state: it loads the
// newest intact chain, streams its fold into place, and replays the WAL
// segments from the chain head's generation on through the ordinary ingest
// path — re-executing any day flush the log crosses, with the restored
// ledger and noise-stream state, so the re-execution is bit-identical to
// what the crashed process computed. Segment g is opened only after capture
// g, so the segments below the head hold only records the chain covers:
// replay never opens them, and a fault in one costs nothing. The returned
// service's Serve skips the source prefix the durable state already covers
// and continues live from there.
//
// Recovery never serves corrupt state and never fails on it either: a
// generation that fails its frame or chain checks is skipped (falling back
// to the newest intact base below it), a record that is not the next in
// sequence or a corrupt segment stops replay cleanly, and in the worst case
// — nothing intact at all — the run restarts from the source. Every such
// downgrade is counted in Run.Durability.RecoveryFallbacks. Only a genuine
// mismatch (a snapshot from a different scenario) is an error.
//
// cfg must describe the same scenario as the original run (ResumeFrom
// verifies the snapshot's config fingerprint) with the source positioned at
// the start of the stream; Parallelism may differ.
func ResumeFrom(cfg Config, dir string) (*Service, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	st := checkpoint.NewStore(dir, s.cfg.DurableFS)
	s.store = st
	chain, fallbacks, err := st.LoadChain(0)
	if err != nil {
		return nil, err
	}
	var replayFrom uint64
	if chain != nil {
		opened, err := openChain(chain.Payloads)
		if err != nil {
			return nil, err
		}
		if err := s.restore(opened); err != nil {
			return nil, err
		}
		if opened.schema == snapSchemaVersion { // a schema-6 chain gets no delta: Serve re-anchors
			s.headGen, s.headFP, s.headDeltas = chain.Gen, chain.FP, chain.Deltas
		}
		replayFrom = chain.Gen
	}
	maxGen, err := st.MaxGen()
	if err != nil {
		return nil, err
	}
	s.nextGen = maxGen + 1

	// Dirty tracking goes live before replay: the mutations replay makes
	// are exactly what the first post-recovery delta must capture.
	s.resetDirtyTracking()

	// With a cadence, the replayed entries form a run of their own in the
	// event log, which the first delta carries.
	if s.cfg.SnapshotEveryDays > 0 {
		s.openRun()
	}
	s.replaying = true
	var replayed int
	var dec events.RunDecoder
	segment := uint64(0)
	replayed, err = st.ReplayWALSegments(replayFrom, func(gen uint64, fr checkpoint.WALFrame) error {
		if fr.Version == 1 {
			seq, ev, err := decodeWALRecord(fr.Body)
			if err != nil {
				return fmt.Errorf("%w: %v", checkpoint.ErrCorrupt, err)
			}
			if seq != s.run.EventsIngested {
				return errReplayGap
			}
			return s.step(ev)
		}
		if gen != segment {
			segment = gen
			dec.Reset()
		}
		seq := fr.FirstSeq
		_, err := dec.Decode(fr.Body, func(ev events.Event, _ bool) error {
			if seq != uint64(s.run.EventsIngested) {
				return errReplayGap
			}
			seq++
			return s.step(ev)
		})
		if errors.Is(err, events.ErrRun) {
			err = fmt.Errorf("%w: %v", checkpoint.ErrCorrupt, err)
		}
		return err
	})
	s.replaying = false
	if errors.Is(err, errReplayGap) || errors.Is(err, checkpoint.ErrCorrupt) {
		// Clean stop: the durable state ends at the cursor; Serve re-reads
		// the rest from the source. A corrupt segment (a flipped preamble
		// bit, a frame whose entries fail to decode) ends the durable log
		// exactly like a torn tail — everything past it is re-delivered by
		// the source and re-applied deterministically, so refusing to start
		// would turn one lost tail into a permanently unrecoverable
		// directory. The skipped tail is reported as a fallback. Serve
		// re-anchors the chain with a fresh base before it logs again: a
		// later replay stops at the same place, so the segment it opens
		// next would otherwise never be replayed.
		fallbacks++
		err = nil
		s.headGen, s.headFP, s.headDeltas = 0, 0, 0
	}
	if err != nil {
		return nil, err
	}
	s.run.Durability.RecoveryFallbacks += fallbacks
	s.skip = s.run.EventsIngested
	if cfg.LiveSource {
		// A live feed never re-delivers the covered prefix — its admission
		// layer dedupes against the very cursors the observers just rebuilt
		// — so there is no prefix to skip: the next event drained is new.
		s.skip = 0
	}
	// An empty directory holds no run to continue: leave resumed unset so
	// Serve initializes it as a fresh run (a Serve-owned directory always
	// carries a fingerprinted base from the very start, so a later
	// ResumeFrom can check the scenario even before any cadence snapshot).
	s.resumed = chain != nil || replayed > 0
	return s, nil
}

// restore streams a generation chain's fold into a freshly built service:
// the folded head first, then each bulk section entry by entry as the merge
// produces it — no folded payload and no per-section slice is ever built.
func (s *Service) restore(c *snapChain) error {
	snap := c.head
	if want, got := s.snapConfig(), snap.Config; got != want {
		return fmt.Errorf("stream: snapshot is for a different scenario (%+v, running %+v)",
			got, want)
	}

	s.curDay = snap.CurDay
	s.started = snap.Started
	s.nextIndex = snap.NextIndex
	s.evictFloor = events.Epoch(snap.EvictFloor)
	s.lastSnapDay = snap.LastSnapDay
	s.run.EventsIngested = snap.EventsIngested
	s.run.EventsDropped = snap.EventsDropped
	s.run.TotalConsumed = math.Float64frombits(snap.TotalConsumed)
	s.run.PeakResidentRecords = snap.PeakResidentRecords
	s.run.EvictedRecords = snap.EvictedRecords
	s.run.RetiredNonces = snap.RetiredNonces
	s.run.Durability = snap.Durability

	// Replay protection: never re-mint a nonce the crashed process already
	// issued, and reinstate the aggregation service's one-use state.
	core.EnsureNonceFloor(core.Nonce(snap.NonceFloor))
	seen := make([]core.Nonce, 0, len(snap.AggSeen))
	for _, n := range snap.AggSeen {
		seen = append(seen, core.Nonce(n))
	}
	s.agg.RestoreNonces(core.Nonce(snap.AggWatermark), seen)

	// Noise streams continue from their exact crash-time positions.
	s.aggNoise.SetState(snap.AggNoise)
	switch {
	case s.ipaNoise != nil && snap.IPANoise != nil:
		s.ipaNoise.SetState(*snap.IPANoise)
	case (s.ipaNoise == nil) != (snap.IPANoise == nil):
		return fmt.Errorf("stream: snapshot central-noise state mismatch")
	}

	// Budget state.
	sites := make(siteIntern)
	if err := s.restoreDevices(c, sites); err != nil {
		return err
	}
	if err := s.restoreCentral(snap.Central); err != nil {
		return err
	}

	if err := s.restoreEvents(c); err != nil {
		return err
	}

	// Late-drop admission marks: durable admission decisions with no event
	// behind them. The observer sees each one as a dropped admission (the
	// synthesized event carries only its identity), so the serving layer's
	// dedupe cursor for a device whose newest admission was late-dropped
	// does not regress across suspend/resume even after the snapshot has
	// subsumed the WAL records of those drops.
	for _, dm := range snap.DropMarks {
		dev := events.DeviceID(dm.Device)
		mark := events.Stamp{Day: dm.Day, ID: events.EventID(dm.ID)}
		s.dropMarks[dev] = mark
		s.observeAdmit(events.Event{ID: mark.ID, Device: dev, Day: mark.Day}, true)
	}

	// Planner cursor.
	for _, ss := range snap.Streams {
		site, product := events.Intern(ss.Site), events.Intern(ss.Product)
		adv, ok := s.plan.advBySite[site]
		if !ok {
			return fmt.Errorf("stream: snapshot stream for unknown advertiser %s", ss.Site)
		}
		pending, err := events.UnmarshalEvents(ss.Pending)
		if err != nil {
			return fmt.Errorf("stream: stream %s/%s: %w", ss.Site, ss.Product, err)
		}
		key := streamKey{site, product}
		s.plan.streams[key] = &streamState{
			adv:     adv,
			product: product,
			epsilon: math.Float64frombits(ss.Epsilon),
			pending: pending,
			seq:     ss.Seq,
			capped:  ss.Capped,
		}
	}

	// Released results. Restored results replay through the result
	// observer so the serving layer's poll buffer survives recovery.
	for _, rs := range snap.Results {
		s.run.Results = append(s.run.Results, Result{
			Querier:        events.Intern(rs.Querier),
			Product:        events.Intern(rs.Product),
			Index:          rs.Index,
			Batch:          rs.Batch,
			Epsilon:        math.Float64frombits(rs.Epsilon),
			Executed:       rs.Executed,
			Truth:          math.Float64frombits(rs.Truth),
			Estimate:       math.Float64frombits(rs.Estimate),
			RMSRE:          math.Float64frombits(rs.RMSRE),
			FireDay:        rs.FireDay,
			DeniedReports:  rs.DeniedReports,
			BiasedReports:  rs.BiasedReports,
			BiasEstimate:   math.Float64frombits(rs.BiasEstimate),
			FirstEpoch:     events.Epoch(rs.FirstEpoch),
			LastEpoch:      events.Epoch(rs.LastEpoch),
			AvgBudgetAfter: math.Float64frombits(rs.AvgBudgetAfter),
		})
		s.observeResult(s.run.Results[len(s.run.Results)-1])
	}
	return nil
}

// restoreEvents re-records the chain's live events — a schema-8 chain's
// runs in order, a schema-7 chain's logged events in order, a schema-6
// chain's records merged by key — and shows each to the admission observer,
// so an external admission layer rebuilds its dedupe cursors from the
// durable state the service resumes from. Late drops in a run are skipped:
// the head's drop marks carry what they decided.
func (s *Service) restoreEvents(c *snapChain) error {
	record := func(e events.Epoch, ev events.Event) {
		s.db.Record(e, ev)
		s.observeAdmit(ev, false)
	}
	switch c.schema {
	case snapSchemaRecords:
		return c.merge(secEvents, func(key DevEpoch, blob, _ []byte) error {
			evs, err := events.UnmarshalEvents(blob)
			if err != nil {
				return fmt.Errorf("stream: record %d/%d: %w", key.Device, key.Epoch, err)
			}
			for _, ev := range evs {
				record(key.Epoch, ev)
			}
			return nil
		})
	case snapSchemaEvents:
		return c.log(func(e events.Epoch, enc []byte) error {
			ev, rest, err := events.DecodeBinary(enc)
			if err == nil && len(rest) != 0 {
				err = fmt.Errorf("%d trailing bytes", len(rest))
			}
			if err != nil {
				return fmt.Errorf("stream: logged event: %w", err)
			}
			record(e, ev)
			return nil
		})
	}
	days := c.head.Config.EpochDays
	if days <= 0 {
		return fmt.Errorf("stream: snapshot head has epoch length %d", days)
	}
	floor := events.Epoch(c.head.EvictFloor)
	var dec events.RunDecoder
	return c.runs(func(lo, hi int, entries, _ []byte) error {
		if below, _ := floorEpochs(lo, hi, days, floor); below {
			return nil
		}
		return decodeRun(&dec, lo, hi, days, floor, entries, record)
	})
}

// inSpan refuses a restored epoch no query window of this scenario can
// touch. Ledger lanes are dense in the epoch, so such an epoch must be
// refused before it reaches a ledger and sizes a lane.
func (s *Service) inSpan(what string, e events.Epoch) error {
	if lo, hi := s.run.FirstSpanEpoch, s.run.LastSpanEpoch; e < lo || e > hi {
		return fmt.Errorf("%s epoch %d outside [%d, %d]: snapshot is corrupt or for a different scenario",
			what, e, lo, hi)
	}
	return nil
}

// restoreCentral restores the head's central ledger rows, checking every
// row's epoch before restoring any.
func (s *Service) restoreCentral(rows []centralState) error {
	if len(rows) > 0 && s.central == nil {
		return fmt.Errorf("stream: snapshot has central ledger rows but run is on-device")
	}
	for _, cs := range rows {
		if err := s.inSpan("central", events.Epoch(cs.Epoch)); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}
	for _, cs := range rows {
		if err := s.central.Restore(events.Intern(cs.Querier), int64(cs.Epoch), math.Float64frombits(cs.Consumed)); err != nil {
			return err
		}
	}
	return nil
}

// restoreDevices streams the folded devices section into the fleet. A slot
// or a requested mark outside the span is refused before it can size a lane:
// each blob is walked twice, and the first walk only checks.
func (s *Service) restoreDevices(c *snapChain, sites siteIntern) error {
	return c.merge(secDevices, func(key DevEpoch, blob, _ []byte) error {
		_, err := decodeDevice(blob, sites,
			func(_ events.Site, e events.Epoch, _ float64) error { return s.inSpan("slot", e) },
			func(_ events.Site, e events.Epoch) error { return s.inSpan("requested", e) })
		if err != nil {
			return fmt.Errorf("stream: device %d: %w", key.Device, err)
		}
		d := s.fleet.GetOrCreate(key.Device)
		denials, err := decodeDevice(blob, sites, d.RestoreBudgetRow,
			func(q events.Site, e events.Epoch) error { d.MarkRequested(q, e, e); return nil })
		if err != nil {
			return fmt.Errorf("stream: device %d: %w", key.Device, err)
		}
		d.RestoreBudgetDenials(denials)
		return nil
	})
}
