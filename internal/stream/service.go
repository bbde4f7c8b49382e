// Package stream is the online measurement service and the planner and query
// executor it shares with the batch front end. The service ingests
// day-stamped events as they arrive and fires each advertiser's summation
// query the moment its batch fills; the Engine (executor.go) is what either
// front end — the service's day clock, or internal/workload.Execute's
// day-by-day Replay of a materialized trace — feeds conversions to: planner
// → due list → prepare → generate → aggregate, one copy.
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
// compare, is the store (mutable segments vs frozen arena), retention and
// durability. Planning, request construction, the generate loop, the fold
// and the release are the Engine for both; the planner is held to an
// independent global-sort statement of the schedule by internal/workload's
// TestPlannerMatchesReferencePlan.
package stream

import (
	"errors"
	"fmt"
	"runtime"
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

// Config parameterizes one streaming service instance. The scenario knobs
// (epoch length, window, budgets, calibration, bias) have the same meaning
// as the batch engine's workload.Config; the service-only knobs tune
// retention and durability.
type Config struct {
	// Source supplies the event stream and the dataset metadata.
	Source dataset.Source
	// EpochDays is the on-device epoch length (7 by default).
	EpochDays int
	// WindowDays is the attribution window (30 by default).
	WindowDays int
	// EpsilonG is the per-epoch budget capacity ε^G.
	EpsilonG float64
	// Calibration derives each advertiser's requested ε. Ignored when
	// FixedEpsilon > 0.
	Calibration privacy.Calibration
	// FixedEpsilon, when positive, uses the same requested ε everywhere.
	FixedEpsilon float64
	// Bias, when non-nil, runs the Appendix F side query with every
	// report.
	Bias *core.BiasSpec
	// Seed drives the aggregation (and IPA-like) noise streams.
	Seed uint64
	// Parallelism bounds the worker pool for the multiplexed generate
	// stage. 0 selects GOMAXPROCS; results are bit-identical for every
	// value.
	Parallelism int
	// MaxQueriesPerProduct truncates each product's query schedule
	// (0 = run every full batch).
	MaxQueriesPerProduct int
	// Policy is the on-device loss policy; nil selects
	// core.CookieMonsterPolicy. Ignored when Central is set.
	Policy core.LossPolicy
	// Central, when true, runs the IPA-like centralized baseline: one
	// population-wide budget ledger admits each query only if every epoch
	// of its window has budget (privacy.Ledger.ChargeAll), and attribution
	// is computed on the full data.
	Central bool
	// LatePolicy selects the admission rule for events whose day has
	// already closed (LateReject aborts, LateDrop drops with a counter).
	// The policy shapes which events the run admits, so it is part of the
	// checkpoint scenario fingerprint.
	LatePolicy LatePolicy

	// CheckpointDir enables crash safety: every ingested event is logged
	// to a write-ahead log in this directory before it is applied, day
	// boundaries commit snapshots per SnapshotEveryDays, and Serve writes
	// a final snapshot on completion. ResumeFrom rebuilds a service from
	// the directory after a crash. Empty disables durability.
	CheckpointDir string
	// SnapshotEveryDays commits a snapshot generation (and rotates the WAL
	// to a fresh segment) at every N-th completed day while serving. 0
	// keeps only the WAL during the run — recovery then replays from the
	// stream's beginning. Ignored without CheckpointDir.
	SnapshotEveryDays int
	// BaseEveryDeltas folds the delta chain into a fresh base after this
	// many deltas (default 8).
	BaseEveryDeltas int
	// GroupCommitEvents, when positive, batches WAL fsyncs into group
	// commits: after this many appended events the service flushes the log
	// and signals a background syncer instead of fsyncing inline, so the
	// ingest thread never waits on the disk. 0 syncs only at snapshot
	// rotations (cadence ticks, which fall on day boundaries) and at
	// suspend or completion.
	GroupCommitEvents int
	// DurableFS overrides the filesystem the checkpoint store and WAL
	// segments go through — the disk-fault injection seam
	// (checkpoint.NewFaultFS). nil selects the real filesystem. Like
	// Parallelism, it cannot change what a run computes, only whether its
	// durable writes fail.
	DurableFS checkpoint.FS
	// FaultHook, when non-nil, observes every state transition (see
	// FaultPoint) and can return an error to simulate a crash there. Test
	// instrumentation; nil in production.
	FaultHook FaultHook

	// AdmitObserver, when non-nil, observes every admission decision the
	// service commits: it fires once per drained event, after the event's
	// WAL record was appended (live path) and the decision applied, with
	// dropped reporting a LateDrop rejection. It also fires for every event
	// carried by a restored snapshot, for every WAL record replayed during
	// ResumeFrom, and (with dropped=true) for every restored late-drop
	// mark — the latter carry only the admission identity (Device, Day,
	// ID), since a dropped event's payload never reaches durable state —
	// so an external admission layer (internal/serve) can rebuild its
	// per-device dedupe cursors from the durable state.
	// Execution-only: never part of the checkpoint fingerprint or the
	// equivalence digests. The observer runs on the service goroutine and
	// must not block.
	AdmitObserver func(ev events.Event, dropped bool)
	// ResultObserver, when non-nil, observes every released query result in
	// canonical order, including results restored from a snapshot and
	// results re-executed during WAL replay. Same execution-only contract
	// as AdmitObserver.
	ResultObserver func(res Result)
	// LiveSource marks the source as an admission-filtered live feed (a
	// network ingest tier) rather than a replayable trace: a resumed
	// service must not skip a source prefix by count, because the feed
	// delivers only events the durable state does not already cover — the
	// serving layer's (device, seq) dedupe guarantees it. Execution-only.
	LiveSource bool
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.EpochDays == 0 {
		c.EpochDays = 7
	}
	if c.WindowDays == 0 {
		c.WindowDays = 30
	}
	if c.EpsilonG == 0 {
		c.EpsilonG = 1
	}
	if c.Calibration == (privacy.Calibration{}) {
		c.Calibration = privacy.DefaultCalibration
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Policy == nil && !c.Central {
		c.Policy = core.CookieMonsterPolicy{}
	}
	if c.BaseEveryDeltas == 0 {
		c.BaseEveryDeltas = 8
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Source == nil:
		return fmt.Errorf("stream: nil source")
	case c.EpochDays <= 0 || c.WindowDays <= 0:
		return fmt.Errorf("stream: non-positive epoch or window length")
	case c.EpsilonG < 0:
		return fmt.Errorf("stream: negative capacity")
	case c.FixedEpsilon < 0:
		return fmt.Errorf("stream: negative fixed epsilon")
	case c.Parallelism < 0:
		return fmt.Errorf("stream: negative parallelism")
	case c.SnapshotEveryDays < 0:
		return fmt.Errorf("stream: negative snapshot cadence")
	case c.SnapshotEveryDays > 0 && c.CheckpointDir == "":
		return fmt.Errorf("stream: snapshot cadence without checkpoint directory")
	case c.BaseEveryDeltas < 0:
		return fmt.Errorf("stream: negative base compaction cadence")
	case c.GroupCommitEvents < 0:
		return fmt.Errorf("stream: negative group-commit threshold")
	}
	for _, adv := range c.Source.Meta().Advertisers {
		if err := adv.Validate(); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}
	return nil
}

// Result records one summation query's outcome. Both engines produce it
// (workload.QueryResult is this type); the equivalence tests compare the
// structs bit-for-bit.
type Result struct {
	// Querier and Product identify the query stream.
	Querier events.Site
	Product string
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
	// windows left (core.Device.RangeRequested).
	Fleet *core.Fleet
	// Central is the population-wide budget ledger (for Central runs): one
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
	// cadence tick: harvesting the previous generation's commit, capturing
	// state, and rotating the WAL. The write of the generation happens off
	// the ingest thread and does not stall it.
	MaxSnapshotStall time.Duration
	// MaxCaptureStall is the capture-and-rotate portion of the worst tick,
	// excluding the wait for the background writer's previous commit. The
	// difference between the two maxima is writer backpressure (commits or
	// compactions outrunning the cadence), not capture cost.
	MaxCaptureStall time.Duration
	// DeltaBytes and BaseBytes total the serialized snapshot payload bytes
	// committed by kind (bases include initial, compacted, and final).
	DeltaBytes int64
	BaseBytes  int64
	// BaseCompactions counts delta chains folded into fresh bases.
	BaseCompactions int
	// GroupCommits counts asynchronous WAL group commits; GroupCommitBytes
	// and MaxGroupCommitBytes total and bound the bytes per batch.
	GroupCommits        int
	GroupCommitBytes    int64
	MaxGroupCommitBytes int
	// RecoveryFallbacks counts the downgrades recovery took on the way to
	// intact state: generation files skipped as unusable plus WAL replays
	// stopped at a sequence gap. 0 when every resume was clean.
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
	dropMarks map[events.DeviceID]dropMark

	// Durability state (nil/zero without Config.CheckpointDir).
	wal         *checkpoint.WAL
	walBuf      []byte // reused WAL record encoding buffer
	lastSnapDay int
	// store is the generation store; headGen/headFP identify the chain
	// head new deltas link onto (headDeltas deltas above its base when
	// recovery loaded it), and nextGen numbers the next generation or WAL
	// segment (monotonic across kinds, never reused).
	store      *checkpoint.Store
	headGen    uint64
	headFP     uint32
	headDeltas int
	nextGen    uint64
	// writer commits captured snapshots off the ingest thread; snapPending
	// marks an enqueued capture whose result has not been harvested yet.
	writer      *snapWriter
	snapPending bool
	// gcEvents/gcBytes accumulate WAL appends toward the next group
	// commit.
	gcEvents int
	gcBytes  int
	// Dirty-state baselines for delta capture (delta.go): per-device
	// ledger versions (requested marks move them too) and the results
	// high-water mark since the previous capture.
	ledgerVers  map[events.DeviceID]uint64
	resultsMark int
	// captureHint pre-sizes the next capture's buffer from the last one's.
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
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	meta := cfg.Source.Meta()
	return &Service{
		Engine:     NewEngine(cfg, meta, events.NewDatabase()),
		evictFloor: events.Epoch(-1 << 31),
		dropMarks:  make(map[events.DeviceID]dropMark),
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
func (s *Service) Serve() (run *Run, err error) {
	if s.cfg.CheckpointDir != "" {
		if err := s.openDurability(); err != nil {
			return nil, err
		}
		defer func() {
			if s.writer != nil {
				// The writer goroutine must not outlive the service. On
				// error paths an in-flight commit is simply allowed to
				// land — one of the legal outcomes of the crash being
				// simulated — and its result discarded.
				if s.snapPending {
					<-s.writer.results
					s.snapPending = false
				}
				s.writer.close()
				s.writer = nil
			}
			if s.wal == nil {
				return
			}
			// An injected fault is a simulated kill: drop the buffered WAL
			// tail rather than flushing it, so the directory is left no
			// more durable than a real crash would leave it (and the
			// recovery harness genuinely exercises lost-tail recovery).
			var fe *FaultError
			if errors.As(err, &fe) {
				s.wal.Abandon()
			} else if cerr := s.wal.Close(); cerr != nil && err == nil {
				run, err = nil, cerr
			}
			s.wal = nil
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
		// Final commit: harvest any in-flight generation, sync the log (so
		// a crash during the final base write still recovers everything),
		// then write the run's full state as a fresh base and collect the
		// generations it supersedes. A suspended run takes the same path —
		// drained queue, synced log, final generation — unless a filled
		// batch is awaiting its day flush: that state is WAL-derived only
		// (snapshots are day-boundary states), so the suspend keeps the
		// synced log and recovery rebuilds the batch by replay.
		if err := s.harvestSnap(); err != nil {
			return nil, err
		}
		if err := s.wal.Sync(); err != nil {
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
	return s.run, nil
}

// openDurability prepares the generation store, the initial base (fresh
// runs), the WAL segment, and the background writer for one Serve.
func (s *Service) openDurability() error {
	if s.store == nil {
		s.store = checkpoint.NewStore(s.cfg.CheckpointDir, s.cfg.DurableFS)
	}
	// A resumed run appends to a segment number no crashed process ever
	// wrote — an old segment's tail may be torn, and recovery already
	// accounted for exactly what is durable in it.
	walGen := s.nextGen
	if !s.resumed {
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
		// and the next recovery must not depend on a second full replay.
		if err := s.writeBase(walGen); err != nil {
			return err
		}
		// The base subsumes everything recovery replayed, so dirty marks
		// taken before replay are stale: without a reset the first delta
		// would re-carry state the base already holds, and append-only
		// sections (Results) would duplicate on fold.
		s.resetDirtyTracking()
	}
	wal, err := s.store.OpenWALSegment(walGen)
	if err != nil {
		return err
	}
	s.wal = wal
	if s.cfg.GroupCommitEvents > 0 {
		s.wal.StartGroupCommit()
	}
	s.writer = newSnapWriter(s.store, s.cfg.BaseEveryDeltas, s.headDeltas)
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
	s.headGen, s.headFP = gen, fp
	s.run.Durability.BaseBytes += int64(len(payload))
	return nil
}

// harvestSnap waits for the background writer's in-flight commit, if any,
// folds its telemetry into the run, and fires the commit fault points.
func (s *Service) harvestSnap() error {
	if s.writer == nil || !s.snapPending {
		return nil
	}
	res := <-s.writer.results
	s.snapPending = false
	if res.err != nil {
		return res.err
	}
	s.headGen, s.headFP = res.gen, res.fp
	s.run.Durability.DeltaBytes += int64(res.bytes)
	if res.compacted {
		s.run.Durability.BaseCompactions++
		s.run.Durability.BaseBytes += int64(res.compactBytes)
	}
	if err := s.fault(PointSnapshotCommitted); err != nil {
		return err
	}
	if res.compacted {
		if err := s.fault(PointBaseCompacted); err != nil {
			return err
		}
	}
	return nil
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
		if err := s.logWAL(ev); err != nil {
			return err
		}
		s.run.EventsIngested++
		s.run.EventsDropped++
		if m, ok := s.dropMarks[ev.Device]; !ok || m.beforeEvent(ev) {
			s.dropMarks[ev.Device] = dropMark{Day: ev.Day, ID: ev.ID}
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
	if err := s.logWAL(ev); err != nil {
		return err
	}
	if len(s.dropMarks) != 0 {
		// A newer event reached the store, so the store itself now carries
		// this device's admission high-water mark; the drop mark is spent.
		if m, ok := s.dropMarks[ev.Device]; ok && m.beforeEvent(ev) {
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

// dropMark is one device's newest late-drop admission: the durable
// (day, id) high-water mark of a decision the event store cannot carry.
type dropMark struct {
	Day int
	ID  events.EventID
}

// beforeEvent reports whether the mark precedes ev in (Day, ID) admission
// order.
func (m dropMark) beforeEvent(ev events.Event) bool {
	return m.Day < ev.Day || (m.Day == ev.Day && m.ID < ev.ID)
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

// logWAL appends one drained event to the write-ahead log on the live path
// (no-op without durability or during replay), tagged with its drain
// sequence number. With group commit configured, crossing the threshold
// flushes the batch and signals the background syncer instead of fsyncing
// inline.
func (s *Service) logWAL(ev events.Event) error {
	if s.wal == nil || s.replaying {
		return nil
	}
	s.walBuf = encodeWALRecord(s.walBuf, s.run.EventsIngested, ev)
	if err := s.wal.Append(s.walBuf); err != nil {
		return err
	}
	if s.cfg.GroupCommitEvents <= 0 {
		return nil
	}
	s.gcEvents++
	s.gcBytes += len(s.walBuf) + 8
	if s.gcEvents >= s.cfg.GroupCommitEvents {
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
	return nil
}

// ingest records one event and routes conversions to the planner.
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
// commit, capture the state dirtied since, rotate the WAL to the capture's
// numbered segment, and hand the delta to the background writer. Only the
// capture and rotation pause ingest — the write, the fsync and any
// compaction happen off the ingest thread.
//
// Order matters for crash safety: the old segment syncs before the capture
// is enqueued, so by the time the new generation can exist on disk, every
// event below its cursor is durable. A crash leaves either the old state
// (recover from the previous generation, replaying the synced segment) or
// both the generation and the stale records (the replay cursor skips the
// overlap) — never a generation whose history is missing.
func (s *Service) rotateCheckpoint() error {
	start := time.Now()
	if err := s.harvestSnap(); err != nil {
		return err
	}
	capStart := time.Now()
	gen := s.nextGen
	s.nextGen++
	// Counted before the capture, so the generation's own head includes it
	// and a run resumed from it reports the capture that produced it.
	s.run.Durability.SnapshotCaptures++
	job := snapJob{gen: gen, parentFP: s.headFP}
	var err error
	if job.payload, err = s.capture(true); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	if err := s.wal.Close(); err != nil {
		return err
	}
	s.wal = nil
	wal, err := s.store.OpenWALSegment(gen)
	if err != nil {
		return err
	}
	s.wal = wal
	if s.cfg.GroupCommitEvents > 0 {
		s.wal.StartGroupCommit()
	}
	s.gcEvents, s.gcBytes = 0, 0
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
	s.writer.enqueue(job)
	s.snapPending = true
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
