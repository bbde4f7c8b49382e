// Package stream is the online measurement service and the planner and query
// executor it shares with the batch front end. The service ingests
// day-stamped events as they arrive and fires each advertiser's summation
// query the moment its batch fills; the Engine (executor.go) is what either
// front end — the service's day clock, or internal/workload.Execute's
// day-by-day Replay of a materialized trace — feeds conversions to: planner
// → due list → prepare → generate → aggregate, one copy. Config (config.go)
// states the scenario once for both: internal/workload's Config and System
// are aliases of it, and Config.Resolve is the one place defaults and
// validity are decided.
//
// Architecture (DESIGN.md §6):
//
//   - A dataset.Source delivers events in (Day, ID) order, and the day clock
//     pulls them one at a time: nothing is buffered between the source and
//     Service.step, so a slow query stage simply delays the next pull and
//     peak memory is set by the attribution-window retention horizon —
//     never by trace length. A source that is itself a queue (the serving
//     layer's admission channel) owns its buffering and its backpressure.
//   - Ingestion is day-clocked. All of day d's events land in the event
//     store before any day-d query fires; queries only read windows ending
//     at or before d, so the generate stage's concurrent readers never
//     overlap the (single-writer) ingest phase and the store needs no read
//     locks.
//   - Queries due on the same day execute as one multiplexed super-batch:
//     their conversions concatenate in canonical (site, product, seq)
//     order, partition by device, and fan out across the worker pool over
//     core.Fleet. Aggregation then releases each query sequentially in the
//     same canonical order, drawing noise from the run's seeded stream.
//   - Retention: once no open batch's attribution window can reach below an
//     epoch, the event store evicts it (events.Database.EvictBefore) and
//     the aggregation service retires the day's consumed nonces
//     (aggregation.Service.Compact). Device budget ledgers are never
//     retired: Listing 1 keeps one filter per (querier, epoch) for good.
//
// Equivalence contract: both front ends plan with the Engine's planner and
// flush one super-batch per fire day in the canonical (fireDay, site,
// product, seq) order, per-device operations serialize identically inside
// the super-batch, and noise streams are consumed in the same sequence — so
// a streaming run over a source is bit-identical to a batch run over the
// materialized dataset, at any parallelism. What the two runs do
// independently, and what internal/stream's equivalence tests therefore
// compare, is how the store is filled (Record per event vs one bulk load),
// retention and durability. Planning, request construction, the generate
// loop, the fold and the release are the Engine for both; the planner is
// held to an independent global-sort statement of the schedule by
// internal/workload's TestPlannerMatchesReferencePlan.
package stream

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
)

// LatePolicy selects how the service treats a late event: one whose stamped
// day is already closed (strictly below the day clock) when it reaches the
// ingest path. The day a given event closes is data-dependent — day d closes
// the moment the first day->d' event (d' > d) is drained — so an event
// stamped with the current day is never late, even if it is the last event
// of that day.
type LatePolicy uint8

const (
	// LateReject treats a late event as a broken source and aborts the
	// run — the strict contract every clean, day-ordered source satisfies.
	// This is the default.
	LateReject LatePolicy = iota
	// LateDrop admits hostile and messy traffic: late events are dropped
	// at admission, counted in Run.EventsDropped, and never reach the
	// event store, the planner, or the budget ledgers. An event for an
	// already-evicted epoch is necessarily late (eviction only passes day
	// boundaries), so it takes the same drop path and can never resurrect
	// evicted state. Drops are WAL-logged like ingests, so crash recovery
	// replays the same admission decisions and the resume cursor stays
	// exact.
	LateDrop
)

// Result records one summation query's outcome. Both engines produce it
// (workload.QueryResult is this type); the equivalence tests compare the
// structs bit-for-bit.
type Result struct {
	// Querier and Product identify the query stream.
	Querier events.Site
	Product events.Sym
	// Index is the query's global position in submission order (0-based).
	Index int
	// Batch is the number of reports aggregated (B).
	Batch int
	// Epsilon is the requested privacy parameter.
	Epsilon float64
	// Executed is false when IPA-like rejected the query for lack of
	// budget (on-device systems always execute).
	Executed bool
	// Truth is the unbiased, noise-free query value Q(D).
	Truth float64
	// Estimate is the released noisy value M(D) (undefined when not
	// executed).
	Estimate float64
	// RMSRE is the realized relative error |M−Q|/|Q| of this query.
	RMSRE float64
	// FireDay is the day the batch filled and the query ran.
	FireDay int
	// DeniedReports counts reports with at least one budget-denied epoch.
	DeniedReports int
	// BiasedReports counts reports whose value actually changed due to
	// denials.
	BiasedReports int
	// BiasEstimate is the querier-side RMSRE upper bound from the side
	// query (0 when bias measurement is off).
	BiasEstimate float64
	// FirstEpoch and LastEpoch delimit the union of the batch's windows.
	FirstEpoch, LastEpoch events.Epoch
	// AvgBudgetAfter snapshots the population-average budget right after
	// this query (the Fig. 5a series).
	AvgBudgetAfter float64
}

// DevEpoch keys the snapshot sections: a device, or one of its epoch records.
type DevEpoch = events.DeviceEpochKey

// Run is a completed streaming execution: per-query results plus the final
// budget state and the service's ingest/retention telemetry.
type Run struct {
	Meta        dataset.Meta
	Results     []Result
	TotalEpochs int

	// Fleet is the device registry: each device's final filter state (for
	// on-device runs) and, for every run, the requested marks its queries'
	// windows left (core.Device.RangeRequested). A finished run's fleet is
	// released from the event store (core.Fleet.ReleaseStore): it answers
	// every read, and creates no devices and generates no reports.
	Fleet *core.Fleet
	// Central is the population-wide budget ledger (for IPA-like runs): one
	// lane per querier, charged all-or-nothing per query.
	Central *privacy.Ledger
	// TotalConsumed is the summed consumed privacy loss across all
	// device-epochs.
	TotalConsumed float64
	// FirstSpanEpoch and LastSpanEpoch delimit every epoch a query window
	// can touch.
	FirstSpanEpoch, LastSpanEpoch events.Epoch

	// EventsIngested counts events drained from the source — accepted and
	// dropped alike, so it is also the WAL sequence cursor and the resume
	// skip count.
	EventsIngested int
	// EventsDropped counts late events dropped at admission under
	// Config.LatePolicy == LateDrop (always 0 under LateReject, which
	// aborts instead).
	EventsDropped int
	// PeakResidentRecords is the maximum number of device-epoch records
	// resident in the event store at any day boundary; with retention on,
	// it tracks the attribution window rather than the trace length.
	PeakResidentRecords int
	// EvictedRecords counts device-epoch records reclaimed by retention.
	EvictedRecords int
	// RetiredNonces counts replay-protection entries reclaimed by
	// aggregation compaction.
	RetiredNonces int

	// Durability is the run's checkpoint/WAL telemetry (zero without
	// Config.CheckpointDir). It is observability only — never part of the
	// equivalence digests — but it rides in every snapshot head, so a
	// resumed run reports the whole run, not its last incarnation.
	Durability DurabilityStats
}

// DurabilityStats measures the durability machinery's cost and behaviour
// over one run.
type DurabilityStats struct {
	// SnapshotCaptures counts cadence snapshot captures.
	SnapshotCaptures int
	// MaxSnapshotStall is the longest the ingest thread was paused by one
	// cadence tick: harvesting the previous generation's commit and any
	// compaction it carried, capturing state, and rotating the WAL. The
	// write of the generation and the compaction happen off the ingest
	// thread and do not stall it.
	MaxSnapshotStall time.Duration
	// MaxCaptureStall is the capture-and-rotate portion of the worst tick,
	// excluding the join of the previous write. The difference between the
	// two maxima is write backpressure (commits or compactions outrunning
	// the cadence), not capture cost.
	MaxCaptureStall time.Duration
	// DeltaBytes and BaseBytes total the serialized snapshot payload bytes
	// committed by kind (bases include initial, compacted, re-anchoring and
	// final).
	DeltaBytes int64
	BaseBytes  int64
	// BaseCompactions counts delta chains folded into fresh bases, when
	// the cadence tick decides the fold: the delta it captures then carries
	// the count.
	BaseCompactions int
	// GroupCommits counts asynchronous WAL group commits; GroupCommitBytes
	// and MaxGroupCommitBytes total and bound the bytes per batch.
	GroupCommits        int
	GroupCommitBytes    int64
	MaxGroupCommitBytes int
	// RecoveryFallbacks counts the downgrades recovery took on the way to
	// intact state: generation files it read and refused, plus WAL replays
	// stopped early. 0 when every resume was clean.
	RecoveryFallbacks int
}

// Service is the online measurement service. Create one with New, then
// drive it to completion with Serve.
type Service struct {
	// Engine is the planner, the query executor and the state they
	// accumulate: the open batches and the due list, the event store, the
	// fleet, the aggregation service, the noise streams and the run
	// (executor.go).
	*Engine

	curDay     int
	started    bool
	evictFloor events.Epoch

	// dropMarks is the per-device late-drop admission high-water mark:
	// the (day, id) of each device's newest dropped event, kept only while
	// no later event for that device reaches the store. A dropped event is
	// a durable admission decision that leaves no trace in the event store,
	// so without these marks a snapshot that subsumes the WAL would lose
	// the decision and an external admission layer (internal/serve) would
	// regress its dedupe cursor across suspend/resume. Snapshot state.
	dropMarks map[events.DeviceID]events.Stamp

	// Durability state (nil/zero without Config.CheckpointDir).
	wal         *checkpoint.WAL
	lastSnapDay int
	// store is the generation store; headGen/headFP identify the chain
	// head new deltas link onto (headGen 0: the chain on disk does not
	// reach the live state, and the next capture is a base that re-anchors
	// it), headDeltas counts the deltas captured since the last base was
	// written or decided (the compaction cadence, which recovery resumes
	// from the chain it loaded), and nextGen numbers the next generation or
	// WAL segment (monotonic across kinds, never reused).
	store      *checkpoint.Store
	headGen    uint64
	headFP     uint32
	headDeltas int
	nextGen    uint64
	// pending joins the write of the last captured delta (and the
	// compaction it carries), which runs off the ingest thread; nil when no
	// write is in flight.
	pending func() snapResult
	// gcEvents/gcBytes accumulate WAL entries and frame bytes toward the
	// next group commit.
	gcEvents int
	gcBytes  int
	// The event log (delta.go): the runs of the events drained since the
	// last capture, each behind its header. The open run, logRun's, is the
	// open WAL segment's: logWAL encodes each drained event into it exactly
	// once, and a WAL frame is the slice of it from frameStart on,
	// frameEntries entries numbered from frameSeq.
	log          []byte
	logRun       runWriter
	frameStart   int
	frameEntries int
	frameSeq     int
	// Dirty-state baselines for delta capture (delta.go): per-device
	// ledger versions (requested marks move them too), the devices of every
	// batch flushed since the previous capture (repeats included), and the
	// results high-water mark. nil ledgerVers means tracking is disarmed.
	ledgerVers  map[events.DeviceID]uint64
	touched     []events.DeviceID
	resultsMark int
	// captureHint pre-sizes the next capture's buffer from the last delta's
	// whole payload, its event log included.
	captureHint int
	// skip counts source events already covered by the restored durable
	// state; Serve discards that prefix before going live (the source
	// delivers events in a deterministic order, so skip-by-count is exact).
	skip int
	// resumed marks a service built by ResumeFrom: Serve continues the
	// checkpoint directory's run instead of reinitializing it.
	resumed bool
	// replaying is set while ResumeFrom feeds WAL records through the
	// ingest path: no WAL writes, no snapshots, no fault hooks.
	replaying bool
}

// New builds a service for cfg without consuming the source.
func New(cfg Config) (*Service, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("stream: nil source")
	}
	meta := cfg.Source.Meta()
	cfg, err := cfg.Resolve(meta)
	if err != nil {
		return nil, err
	}
	return &Service{
		Engine:     NewEngine(cfg, meta, events.NewDatabase()),
		evictFloor: events.Epoch(-1 << 31),
		dropMarks:  make(map[events.DeviceID]events.Stamp),
		logRun:     runWriter{start: -1},
	}, nil
}

// Serve drains the source to completion on the calling goroutine: the day
// clock pulls each event from the source, ingests it, fires due queries at
// each day boundary, and advances retention. It returns the completed run.
// Serve is single-shot; the service cannot be reused.
//
// With Config.CheckpointDir set, every event is logged ahead of being
// applied, snapshots commit on the SnapshotEveryDays cadence, and a final
// snapshot commits on completion. On a resumed service (ResumeFrom), the
// source prefix the durable state already covers is skipped before the day
// clock goes live.
//
// Every path that returns a Run — completion and suspend alike — releases
// the fleet's hold on the event store once the final base is written
// (core.Fleet.ReleaseStore): the Run carries budget state and results, not
// the store.
func (s *Service) Serve() (run *Run, err error) {
	if s.cfg.CheckpointDir != "" {
		if err := s.openDurability(); err != nil {
			return nil, err
		}
		defer func() {
			if join := s.pending; join != nil {
				// The write must not outlive the service. On error paths
				// an in-flight commit and any compaction it carries are
				// simply allowed to land — one of the legal outcomes of
				// the crash being simulated — and the result discarded.
				// The field is cleared first, so a panic the join re-raises
				// leaves nothing to join again.
				s.pending = nil
				join()
			}
			if s.wal == nil {
				return
			}
			// An injected fault is a simulated kill: drop the entries not
			// yet in a frame rather than writing them, so the directory is
			// left no more durable than a real crash would leave it (and
			// the recovery harness genuinely exercises lost-tail recovery).
			var fe *FaultError
			if errors.As(err, &fe) {
				s.wal.Abandon()
			} else {
				cerr := s.cutFrame()
				if werr := s.wal.Close(); cerr == nil {
					cerr = werr
				}
				if cerr != nil && err == nil {
					run, err = nil, cerr
				}
			}
			s.wal = nil
			s.log, s.logRun.start = nil, -1
		}()
	}

	for skip := s.skip; ; {
		ev, ok := s.cfg.Source.Next()
		if !ok {
			break
		}
		if skip > 0 {
			skip--
			continue
		}
		if err := s.step(ev); err != nil {
			return nil, err
		}
	}
	// A suspended source ended mid-trace (graceful shutdown of a live
	// feed): the in-progress day must NOT flush — its remaining events
	// arrive after resume, and day-d queries only fire once all of day d is
	// in the store. A drained source reached the end of its trace, so the
	// final day closes out exactly as the batch engine would.
	suspended := false
	if sus, ok := s.cfg.Source.(dataset.Suspender); ok {
		suspended = sus.Suspended()
	}
	if s.started && !suspended {
		if err := s.endOfDay(s.curDay + 1); err != nil {
			return nil, err
		}
	}
	if s.wal != nil {
		// Final commit: harvest any in-flight generation (and the compaction it
		// carried), sync the log (so a crash during the final base write still
		// recovers everything), then write the run's full state as a fresh base
		// and collect the generations it supersedes. A suspended run takes the
		// same path — drained queue, synced log, final generation — unless a
		// filled batch is awaiting its day flush: that state is WAL-derived only
		// (snapshots are day-boundary states), so the suspend keeps the synced
		// log and recovery rebuilds the batch by replay.
		if err := s.harvestSnap(); err != nil {
			return nil, err
		}
		if err := s.syncWAL(); err != nil {
			return nil, err
		}
		if !suspended || len(s.due) == 0 {
			gen := s.nextGen
			s.nextGen++
			if err := s.writeBase(gen); err != nil {
				return nil, err
			}
			if err := s.store.GC(keepGenerations); err != nil {
				return nil, err
			}
		}
	}
	s.dropDirtyTracking()
	// The run is final and durable: its devices let go of the event store,
	// which the returned Run would otherwise pin for as long as it lives.
	s.fleet.ReleaseStore()
	return s.run, nil
}

// openDurability prepares the generation store, the initial base (fresh
// runs) and the WAL segment for one Serve.
func (s *Service) openDurability() error {
	if s.store == nil {
		s.store = checkpoint.NewStore(s.cfg.CheckpointDir, s.cfg.DurableFS)
	}
	// A resumed run appends to a segment number no crashed process ever
	// wrote — an old segment's tail may be torn, and recovery already
	// accounted for exactly what is durable in it — and removes what a
	// crashed process was staging, before it writes anything.
	walGen := s.nextGen
	if s.resumed {
		if err := s.store.RemoveStaging(); err != nil {
			return err
		}
	} else {
		// A fresh run owns the directory: clear leftovers from any previous
		// run. Its initial base and first WAL segment share generation 1:
		// the segment holds exactly the events ingested after that capture.
		if err := s.store.Reset(); err != nil {
			return err
		}
		walGen = 1
	}
	s.nextGen = walGen + 1
	if s.headGen == 0 {
		// No chain head: a fresh run commits the initial base whose scenario
		// fingerprint every later ResumeFrom must match, even before the
		// first cadence snapshot; a resumed run whose recovery refused every
		// generation on disk (state rebuilt from WAL replay and the source
		// alone) re-anchors the chain, because deltas need an intact parent
		// and the next recovery must not depend on a second full replay; so
		// does a run whose replay stopped early, whose new segment a later
		// replay would never reach past the gap, and a run resumed from a
		// schema-8 chain, which no delta of this schema may extend.
		if err := s.reanchor(walGen); err != nil {
			return err
		}
	}
	return s.openWALSegment(walGen)
}

// openWALSegment opens WAL segment gen and starts its run in the event log,
// closing the run replay logged, if any, first.
func (s *Service) openWALSegment(gen uint64) error {
	wal, err := s.store.OpenWALSegment(gen)
	if err != nil {
		return err
	}
	s.wal = wal
	s.gcEvents, s.gcBytes = 0, 0
	s.log = s.logRun.close(s.log)
	s.openRun()
	return nil
}

// writeBase commits the service's complete state as base generation gen and
// makes it the chain head. Caller guarantees quiescence.
func (s *Service) writeBase(gen uint64) error {
	payload, err := s.capture(false)
	if err != nil {
		return err
	}
	fp, err := s.store.WriteBase(gen, payload)
	if err != nil {
		return err
	}
	s.headGen, s.headFP, s.headDeltas = gen, fp, 0
	s.run.Durability.BaseBytes += int64(len(payload))
	return nil
}

// reanchor commits the service's complete state as base generation gen,
// the chain head from then on. The base subsumes everything before it, so
// dirty marks taken before are stale: without a reset the next delta would
// re-carry state the base already holds, and append-only sections (Results)
// would duplicate on fold. Caller guarantees quiescence.
func (s *Service) reanchor(gen uint64) error {
	if err := s.writeBase(gen); err != nil {
		return err
	}
	s.resetDirtyTracking()
	return nil
}

// harvestSnap joins the in-flight delta write, if any, folds its telemetry
// into the run, and fires the commit fault point. A compaction whose fold
// ended below the write's delta found the chain on disk broken under it: no
// later delta could join that chain, so the head is dropped and the next
// capture re-anchors it.
func (s *Service) harvestSnap() error {
	join := s.pending
	if join == nil {
		return nil
	}
	s.pending = nil
	res := join()
	if res.err != nil {
		return res.err
	}
	s.headGen, s.headFP = res.gen, res.fp
	if res.head != res.gen {
		s.headGen, s.headFP = 0, 0
	}
	s.run.Durability.DeltaBytes += int64(res.bytes)
	s.run.Durability.BaseBytes += int64(res.baseBytes)
	return s.fault(PointSnapshotCommitted)
}

// step advances the day clock for one event and applies it — the single
// ingest path shared by live serving and WAL replay. On the live path the
// event reaches the write-ahead log before any in-memory state changes.
func (s *Service) step(ev events.Event) error {
	if !s.started {
		s.started = true
		s.curDay = ev.Day
		s.lastSnapDay = ev.Day
	}
	if ev.Day < s.curDay {
		if s.cfg.LatePolicy != LateDrop {
			return fmt.Errorf("stream: source out of order: day %d after day %d",
				ev.Day, s.curDay)
		}
		// Late drop: the admission decision is durable — WAL-logged and
		// counted against the drain cursor like an accepted event, so
		// replay re-drops it at the same sequence number — but the event
		// itself never touches the event store, the planner, or (for an
		// evicted epoch) any state retention already reclaimed.
		if err := s.logWAL(ev, true); err != nil {
			return err
		}
		s.run.EventsIngested++
		s.run.EventsDropped++
		if m, ok := s.dropMarks[ev.Device]; !ok || m.Before(ev) {
			s.dropMarks[ev.Device] = events.Stamp{Day: ev.Day, ID: ev.ID}
		}
		if err := s.fault(PointEventIngested); err != nil {
			return err
		}
		s.observeAdmit(ev, true)
		return nil
	}
	if ev.Day > s.curDay {
		if err := s.endOfDay(ev.Day); err != nil {
			return err
		}
		s.curDay = ev.Day
	}
	if err := s.logWAL(ev, false); err != nil {
		return err
	}
	if len(s.dropMarks) != 0 {
		// A newer event reached the store, so the store itself now carries
		// this device's admission high-water mark; the drop mark is spent.
		if m, ok := s.dropMarks[ev.Device]; ok && m.Before(ev) {
			delete(s.dropMarks, ev.Device)
		}
	}
	s.ingest(ev)
	if err := s.fault(PointEventIngested); err != nil {
		return err
	}
	s.observeAdmit(ev, false)
	return nil
}

// observeAdmit notifies the configured admission observer. It fires after
// the fault point, so a simulated crash at PointEventIngested is a crash
// between the WAL append and the externally visible acknowledgement — the
// regime the serving layer's idempotent-retry test exercises.
func (s *Service) observeAdmit(ev events.Event, dropped bool) {
	if s.cfg.AdmitObserver != nil {
		s.cfg.AdmitObserver(ev, dropped)
	}
}

// released is Flush's per-result callback: the fault point, then the
// observer — both after the result joined Run.Results.
func (s *Service) released(res Result) error {
	if err := s.fault(PointQueryExecuted); err != nil {
		return err
	}
	s.observeResult(res)
	return nil
}

// observeResult notifies the configured result observer.
func (s *Service) observeResult(res Result) {
	if s.cfg.ResultObserver != nil {
		s.cfg.ResultObserver(res)
	}
}

// walFrameBytes is how many bytes of entries may be pending before a WAL
// frame is cut between group commits — or, without group commit, between
// syncs.
const walFrameBytes = 64 << 10

// logWAL encodes one drained event into the open run of the event log —
// the write-ahead log's next entry, tagged by its position with its drain
// sequence number — ahead of applying it; dropped flags a late drop. Replay
// logs into a run of its own and writes no frame. On the live path a frame
// is cut every GroupCommitEvents events, with a request to the background
// syncer, and whenever walFrameBytes of entries are pending.
func (s *Service) logWAL(ev events.Event, dropped bool) error {
	if s.logRun.start < 0 {
		return nil
	}
	s.log = s.logRun.add(s.log, ev, dropped)
	s.frameEntries++
	if s.wal == nil {
		return nil
	}
	if s.cfg.GroupCommitEvents > 0 {
		if s.gcEvents++; s.gcEvents >= s.cfg.GroupCommitEvents {
			if err := s.cutFrame(); err != nil {
				return err
			}
			if err := s.wal.RequestSync(); err != nil {
				return err
			}
			d := &s.run.Durability
			d.GroupCommits++
			d.GroupCommitBytes += int64(s.gcBytes)
			if s.gcBytes > d.MaxGroupCommitBytes {
				d.MaxGroupCommitBytes = s.gcBytes
			}
			s.gcEvents, s.gcBytes = 0, 0
			return s.fault(PointGroupCommit)
		}
	}
	if len(s.log)-s.frameStart >= walFrameBytes {
		return s.cutFrame()
	}
	return nil
}

// cutFrame writes the open run's entries not yet in a frame to the WAL as
// one frame. Without a snapshot cadence no delta carries the run, so the
// written entries leave the buffer; the encoder's run goes on.
func (s *Service) cutFrame() error {
	if s.frameEntries == 0 {
		return nil
	}
	entries := s.log[s.frameStart:]
	if err := s.wal.Append(uint64(s.frameSeq), entries); err != nil {
		return err
	}
	s.gcBytes += checkpoint.WALFrameHeader + len(entries)
	if s.cfg.SnapshotEveryDays == 0 {
		s.log = s.log[:s.frameStart]
	}
	s.frameStart, s.frameSeq, s.frameEntries = len(s.log), s.frameSeq+s.frameEntries, 0
	return nil
}

// syncWAL cuts the pending frame and makes the segment durable.
func (s *Service) syncWAL() error {
	if err := s.cutFrame(); err != nil {
		return err
	}
	return s.wal.Sync()
}

// ingest records one event and routes conversions to the planner; logWAL
// has already logged it.
func (s *Service) ingest(ev events.Event) {
	s.db.Record(events.EpochOfDay(ev.Day, s.cfg.EpochDays), ev)
	s.run.EventsIngested++
	if ev.IsConversion() {
		s.admit(ev)
	}
}

// endOfDay closes out the current day before advancing to nextDay: it fires
// every query whose batch filled today, then advances the retention horizon
// now that those batches' windows are settled, and — on the snapshot
// cadence — commits a checkpoint and rotates the WAL.
func (s *Service) endOfDay(nextDay int) error {
	if err := s.fault(PointDayEnd); err != nil {
		return err
	}
	if s.ledgerVers != nil { // the flush's devices are the next delta's candidates
		for _, q := range s.due {
			for _, conv := range q.batch {
				s.touched = append(s.touched, conv.Device)
			}
		}
	}
	if err := s.flushDue(s.released); err != nil {
		return err
	}
	if err := s.fault(PointDayFlushed); err != nil {
		return err
	}
	s.advanceRetention(nextDay)
	if err := s.fault(PointRetentionAdvanced); err != nil {
		return err
	}
	if s.wal != nil && !s.replaying && s.cfg.SnapshotEveryDays > 0 &&
		s.curDay-s.lastSnapDay >= s.cfg.SnapshotEveryDays {
		s.lastSnapDay = s.curDay
		if err := s.rotateCheckpoint(); err != nil {
			return err
		}
	}
	return nil
}

// rotateCheckpoint is the cadence tick: harvest the previous generation's
// commit (and the compaction it carried), decide whether this delta is
// compacted, capture the state dirtied since, rotate the WAL to the
// capture's numbered segment, and start the delta's write. Only the capture
// and rotation pause ingest — the write, the fsync and any compaction
// happen off the ingest thread. A tick with no chain head to link onto —
// the last compaction found a delta under its own unreadable — writes a
// base instead, on the ingest thread, and no compaction is decided.
//
// Order matters for crash safety: the old segment syncs before the delta's
// write starts, so by the time the new generation can exist on disk, every
// event below its cursor is durable, and the new segment opens after the
// capture, so it holds only events from that cursor on. A crash leaves
// either the old state (recover from the previous generation, replaying
// the synced segment) or the new generation, whose replay starts at its own
// segment — never a generation whose history is missing.
func (s *Service) rotateCheckpoint() error {
	start := time.Now()
	if err := s.harvestSnap(); err != nil {
		return err
	}
	// The day clock keeps the compaction cadence, so the decision — and
	// the count, which the generation's own head carries — does not depend
	// on when a compaction lands.
	delta := s.headGen != 0
	compact := false
	if delta {
		s.headDeltas++
		compact = s.cfg.BaseEveryDeltas > 0 && s.headDeltas >= s.cfg.BaseEveryDeltas
	}
	if compact {
		s.headDeltas = 0
		s.run.Durability.BaseCompactions++
		if err := s.fault(PointBaseCompacted); err != nil {
			return err
		}
	}
	capStart := time.Now()
	gen := s.nextGen
	s.nextGen++
	// Counted before the capture, so the generation's own head includes it
	// and a run resumed from it reports the capture that produced it.
	s.run.Durability.SnapshotCaptures++
	if err := s.cutFrame(); err != nil {
		return err
	}
	var payload []byte
	var err error
	if delta {
		payload, err = s.capture(true)
	} else if err = s.reanchor(gen); err == nil {
		err = s.store.GC(keepGenerations)
	}
	if err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	if err := s.wal.Close(); err != nil {
		return err
	}
	s.wal = nil
	if err := s.openWALSegment(gen); err != nil {
		return err
	}
	now := time.Now()
	if stall := now.Sub(start); stall > s.run.Durability.MaxSnapshotStall {
		s.run.Durability.MaxSnapshotStall = stall
	}
	if stall := now.Sub(capStart); stall > s.run.Durability.MaxCaptureStall {
		s.run.Durability.MaxCaptureStall = stall
	}
	if err := s.fault(PointDeltaCaptured); err != nil {
		return err
	}
	if delta {
		s.pending = commitSnap(s.store, gen, s.headFP, payload, compact)
	}
	return nil
}

// advanceRetention computes the oldest epoch any future query window can
// reach — bounded by the earliest still-pending conversion and the next
// ingest day — and evicts everything below it from the event store.
func (s *Service) advanceRetention(nextDay int) {
	if n := s.db.NumRecords(); n > s.run.PeakResidentRecords {
		s.run.PeakResidentRecords = n
	}
	minLive := nextDay
	if d, ok := s.plan.minPendingDay(); ok && d < minLive {
		minLive = d
	}
	floor := events.EpochOfDay(minLive-s.cfg.WindowDays+1, s.cfg.EpochDays)
	if floor <= s.evictFloor {
		return
	}
	s.evictFloor = floor
	s.run.EvictedRecords += s.db.EvictBefore(floor)
}
