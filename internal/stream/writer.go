package stream

import (
	"fmt"
	"sync"

	"repro/internal/checkpoint"
)

// The background snapshot writer takes the disk off the ingest thread. The
// day clock captures state synchronously (cheap — a delta touches only what
// changed) and hands the encoded payload here; the staged write, the fsync,
// chain compaction, and generation GC all happen on this goroutine while
// ingest continues. At most one job is ever in flight: the day clock
// harvests the previous result before enqueueing the next capture, so
// commits overlap ingest, never each other, and the chain's parent
// fingerprints stay sequential.

// snapJob is one captured delta handed to the background writer.
type snapJob struct {
	gen      uint64
	parentFP uint32
	payload  []byte
}

// snapResult reports one job's durable commit.
type snapResult struct {
	gen   uint64
	fp    uint32
	bytes int
	// compacted marks that the delta tripped a base compaction: the chain
	// was folded into a fresh base of compactBytes and superseded
	// generations collected.
	compacted    bool
	compactBytes int
	err          error
}

// keepGenerations is how many of the newest intact base generations (with
// the deltas and WAL segments above them) every GC retains: the head, and
// one to fall back to when the head turns out unreadable.
const keepGenerations = 2

// snapWriter owns the writer goroutine and its single-slot channels.
type snapWriter struct {
	store     *checkpoint.Store
	baseEvery int

	jobs    chan snapJob
	results chan snapResult
	wg      sync.WaitGroup

	deltasSince int // deltas committed since the last base, writer-owned
}

// newSnapWriter starts the writer. deltasSince is the length of the delta
// chain already on disk (a resumed run's), so the compaction cadence — and
// the chain's length — does not restart with every incarnation.
func newSnapWriter(store *checkpoint.Store, baseEvery, deltasSince int) *snapWriter {
	w := &snapWriter{
		store:       store,
		baseEvery:   baseEvery,
		jobs:        make(chan snapJob, 1),
		results:     make(chan snapResult, 1),
		deltasSince: deltasSince,
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for job := range w.jobs {
			w.results <- w.commit(job)
		}
	}()
	return w
}

// enqueue hands one capture to the writer. The caller must have harvested
// the previous result first; with the single-slot channel the send never
// blocks under that protocol.
func (w *snapWriter) enqueue(job snapJob) { w.jobs <- job }

// close stops the writer goroutine. The caller must have harvested or
// drained any in-flight result first.
func (w *snapWriter) close() {
	close(w.jobs)
	w.wg.Wait()
}

// commit durably writes one delta, compacting the chain into a fresh base
// every baseEvery deltas.
func (w *snapWriter) commit(job snapJob) snapResult {
	res := snapResult{gen: job.gen, bytes: len(job.payload)}
	fp, err := w.store.WriteDelta(job.gen, job.parentFP, job.payload)
	if err != nil {
		res.err = err
		return res
	}
	res.fp = fp
	w.deltasSince++
	if w.baseEvery > 0 && w.deltasSince >= w.baseEvery {
		res.err = w.compact(&res)
	}
	return res
}

// compact folds the newest intact chain (which includes the delta just
// written) into a base carrying the head's generation and fingerprint, so
// later deltas chain onto either representation, then collects superseded
// generations. Failure is reported as a crash, never as corrupt state: the
// chain the fold read stays intact on disk.
func (w *snapWriter) compact(res *snapResult) error {
	chain, _, err := w.store.LoadChain()
	if err != nil {
		return err
	}
	if chain == nil {
		return fmt.Errorf("stream: base compaction found no intact chain")
	}
	payload, err := foldChain(chain.Payloads)
	if err != nil {
		return err
	}
	if err := w.store.WriteBaseLinked(chain.Gen, chain.FP, payload); err != nil {
		return err
	}
	w.deltasSince = 0
	res.compacted = true
	res.compactBytes = len(payload)
	return w.store.GC(keepGenerations)
}
