package stream

import (
	"sync"

	"repro/internal/checkpoint"
)

// The background snapshot writer takes the disk off the ingest thread. The
// day clock captures a delta whole — the head and the touched devices, then
// the period's event log, the run its WAL segment holds, so no event is
// gathered, encoded or copied twice — and hands both parts to one goroutine,
// which makes the staged write and the fsync while ingest continues. When
// the day clock marked the delta for compaction, the same goroutine then
// folds the chain up to it into a fresh base — the devices merged, the logs'
// runs concatenated, those wholly below the eviction floor dropped and the
// one straddling it re-encoded — and collects the generations that base
// supersedes. Every store write of a running service is thus one sequence:
// delta, then its base, then GC, then the next delta.
//
// At most one job is ever in flight. The day clock harvests the previous
// job's one result — the delta's commit, any compaction it carried, and the
// log buffer, free again — before it enqueues the next, so deltas commit one
// after another and the chain's parent fingerprints stay sequential.

// snapJob is one captured delta handed to the background writer: its
// payload is prefix, then log.
type snapJob struct {
	gen         uint64
	parentFP    uint32
	prefix, log []byte
	// compact folds the chain into a base once the delta is written.
	compact bool
}

// snapResult reports one job: the delta's generation, chain fingerprint,
// payload bytes and log buffer, and, for a compacted job, the base's payload
// bytes and the head of the chain it folded — gen unless the chain on disk
// ends below it (a delta under it unreadable), 0 if no base is intact.
type snapResult struct {
	gen       uint64
	fp        uint32
	bytes     int
	log       []byte
	head      uint64
	baseBytes int
	err       error
}

// keepGenerations is how many of the newest intact base generations (with
// the deltas and WAL segments above them) every GC retains: the head, and
// one to fall back to when the head turns out unreadable.
const keepGenerations = 2

// snapWriter owns the writer goroutine and its single-slot channels.
type snapWriter struct {
	store *checkpoint.Store

	jobs    chan snapJob
	results chan snapResult
	wg      sync.WaitGroup
}

// newSnapWriter starts the writer.
func newSnapWriter(store *checkpoint.Store) *snapWriter {
	w := &snapWriter{
		store:   store,
		jobs:    make(chan snapJob, 1),
		results: make(chan snapResult, 1),
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

// close stops the writer once the job it holds has landed. The result
// channel has a free slot under the harvest protocol, so the writer never
// blocks on an unharvested result.
func (w *snapWriter) close() {
	close(w.jobs)
	w.wg.Wait()
}

// commit durably writes one delta and, when marked, compacts the chain up to
// it.
func (w *snapWriter) commit(job snapJob) snapResult {
	res := snapResult{gen: job.gen, bytes: len(job.prefix) + len(job.log), log: job.log, head: job.gen}
	res.fp, res.err = w.store.WriteDelta(job.gen, job.parentFP, job.prefix, job.log)
	if res.err == nil && job.compact {
		res.head, res.baseBytes, res.err = w.compact()
	}
	return res
}

// compact folds the intact chain — which ends at the delta just written
// unless a delta below it is unreadable — into a base carrying the chain
// head's generation and fingerprint, so later deltas chain onto either
// representation, then collects superseded generations. It returns the
// folded chain's head (0 when no base is intact, and nothing is written) and
// the base's payload bytes. Failure is reported as a crash, never as corrupt
// state: the chain the fold read stays intact on disk.
func (w *snapWriter) compact() (head uint64, n int, err error) {
	chain, _, err := w.store.LoadChain()
	if err != nil || chain == nil {
		return 0, 0, err
	}
	payload, err := foldChain(chain.Payloads)
	if err != nil {
		return 0, 0, err
	}
	if err := w.store.WriteBaseLinked(chain.Gen, chain.FP, payload); err != nil {
		return 0, 0, err
	}
	return chain.Gen, len(payload), w.store.GC(keepGenerations)
}
