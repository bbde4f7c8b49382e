package stream

import (
	"fmt"
	"sync"

	"repro/internal/checkpoint"
)

// The background snapshot writer takes the disk off the ingest thread. The
// day clock captures a delta whole — the head and the touched devices, then
// the period's event log, the run its WAL segment holds, so no event is
// gathered, encoded or copied twice — and hands both parts here; this
// goroutine makes the staged write and the fsync while ingest continues,
// and hands the log's buffer back with its result. A delta the day clock
// marked for compaction is then handed on to a second goroutine, the
// compactor, which folds the chain up to that delta into a fresh base — the
// devices merged, the logs' runs concatenated, those wholly below the
// eviction floor dropped and the one straddling it re-encoded — and
// collects the generations it supersedes while later deltas are written.
//
// At most one delta job and at most one compaction are ever in flight. The
// day clock harvests the previous delta before it enqueues the next, so
// deltas commit one after another and the chain's parent fingerprints stay
// sequential. It harvests the previous compaction before it marks the next
// delta for one — or at the final commit — so the compactor is always idle
// when a marked delta reaches it.

// snapJob is one captured delta handed to the background writer: its
// payload is prefix, then log.
type snapJob struct {
	gen         uint64
	parentFP    uint32
	prefix, log []byte
	// compact hands the delta's generation to the compactor once written.
	compact bool
}

// snapResult reports one delta's durable commit — its generation, chain
// fingerprint, payload bytes and log buffer, free again — or one
// compaction's base payload bytes.
type snapResult struct {
	gen   uint64
	fp    uint32
	bytes int
	log   []byte
	err   error
}

// keepGenerations is how many of the newest intact base generations (with
// the deltas and WAL segments above them) every GC retains: the head, and
// one to fall back to when the head turns out unreadable.
const keepGenerations = 2

// snapWriter owns the writer and compactor goroutines and their
// single-slot channels.
type snapWriter struct {
	store *checkpoint.Store

	jobs      chan snapJob
	results   chan snapResult
	compacts  chan uint64 // generations to compact, writer to compactor
	compacted chan snapResult
	wg        sync.WaitGroup
}

// newSnapWriter starts the writer and the compactor.
func newSnapWriter(store *checkpoint.Store) *snapWriter {
	w := &snapWriter{
		store:     store,
		jobs:      make(chan snapJob, 1),
		results:   make(chan snapResult, 1),
		compacts:  make(chan uint64, 1),
		compacted: make(chan snapResult, 1),
	}
	w.wg.Add(2)
	go func() {
		defer w.wg.Done()
		defer close(w.compacts)
		for job := range w.jobs {
			w.results <- w.commit(job)
		}
	}()
	go func() {
		defer w.wg.Done()
		for gen := range w.compacts {
			n, err := w.compact(gen)
			w.compacted <- snapResult{bytes: n, err: err}
		}
	}()
	return w
}

// enqueue hands one capture to the writer. The caller must have harvested
// the previous result first; with the single-slot channel the send never
// blocks under that protocol.
func (w *snapWriter) enqueue(job snapJob) { w.jobs <- job }

// close stops both goroutines once the jobs they hold have landed. Every
// result channel has a free slot under the harvest protocol, so neither
// goroutine blocks on an unharvested result.
func (w *snapWriter) close() {
	close(w.jobs)
	w.wg.Wait()
}

// commit durably writes one delta, handing it to the compactor when marked.
func (w *snapWriter) commit(job snapJob) snapResult {
	res := snapResult{gen: job.gen, bytes: len(job.prefix) + len(job.log), log: job.log}
	res.fp, res.err = w.store.WriteDelta(job.gen, job.parentFP, job.prefix, job.log)
	if res.err == nil && job.compact {
		w.compacts <- job.gen
	}
	return res
}

// compact folds the intact chain up to generation gen — a delta written
// since never joins it — into a base carrying the head's generation and
// fingerprint, so later deltas chain onto either representation, then
// collects superseded generations; every generation written meanwhile lies
// above any GC cutoff. It returns the base's payload bytes. Failure is
// reported as a crash, never as corrupt state: the chain the fold read stays
// intact on disk.
func (w *snapWriter) compact(gen uint64) (int, error) {
	chain, _, err := w.store.LoadChain(gen)
	if err != nil {
		return 0, err
	}
	if chain == nil {
		return 0, fmt.Errorf("stream: base compaction found no intact chain")
	}
	payload, err := foldChain(chain.Payloads)
	if err != nil {
		return 0, err
	}
	if err := w.store.WriteBaseLinked(chain.Gen, chain.FP, payload); err != nil {
		return 0, err
	}
	return len(payload), w.store.GC(keepGenerations)
}
