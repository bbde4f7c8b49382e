package stream

import (
	"repro/internal/checkpoint"
)

// The snapshot write takes the disk off the ingest thread. The day clock
// captures a delta whole into one payload — the head and the touched
// devices, then the period's event log, the run its WAL segment holds, so no
// event is gathered or encoded twice — and starts one goroutine (spawn) that
// makes the staged write and the fsync while ingest continues. When the day
// clock marked the delta for compaction, the same goroutine then folds the
// chain up to it into a fresh base — the devices merged, the logs' runs
// concatenated, those wholly below the eviction floor dropped and the one
// straddling it re-encoded — and collects the generations that base
// supersedes. Every store write of a running service is thus one sequence:
// delta, then its base, then GC, then the next delta.
//
// At most one write is ever in flight. The day clock joins the previous
// write and harvests its one result — the delta's commit and any compaction
// it carried — before it captures the next, so deltas commit one after
// another and the chain's parent fingerprints stay sequential.

// snapResult reports one write: the delta's generation, chain fingerprint
// and payload bytes, and, for a compacted write, the base's payload bytes
// and the head of the chain it folded — gen unless the chain on disk ends
// below it (a delta under it unreadable), 0 if no base is intact.
type snapResult struct {
	gen       uint64
	fp        uint32
	bytes     int
	head      uint64
	baseBytes int
	err       error
}

// keepGenerations is how many of the newest intact base generations (with
// the deltas and WAL segments above them) every GC retains: the head, and
// one to fall back to when the head turns out unreadable.
const keepGenerations = 2

// commitSnap starts durably writing one delta payload as generation gen,
// chained to parentFP, and, when compact is set, compacting the chain up to
// it, on a goroutine of its own. The returned func joins the write and
// returns its result, re-raising any panic it raised; call it exactly once.
// The caller hands payload over and must not touch it again.
func commitSnap(store *checkpoint.Store, gen uint64, parentFP uint32, payload []byte, compact bool) func() snapResult {
	res := snapResult{gen: gen, bytes: len(payload), head: gen}
	join := spawn(func() {
		res.fp, res.err = store.WriteDelta(gen, parentFP, payload)
		if res.err == nil && compact {
			res.head, res.baseBytes, res.err = compactChain(store)
		}
	})
	return func() snapResult {
		join()
		return res
	}
}

// compactChain folds the intact chain — which ends at the delta just
// written unless a delta below it is unreadable — into a base carrying the
// chain head's generation and fingerprint, so later deltas chain onto either
// representation, then collects superseded generations. It returns the
// folded chain's head (0 when no base is intact, and nothing is written) and
// the base's payload bytes. Failure is reported as a crash, never as corrupt
// state: the chain the fold read stays intact on disk.
func compactChain(store *checkpoint.Store) (head uint64, n int, err error) {
	chain, _, err := store.LoadChain()
	if err != nil || chain == nil {
		return 0, 0, err
	}
	payload, err := foldChain(chain.Payloads)
	if err != nil {
		return 0, 0, err
	}
	if err := store.WriteBaseLinked(chain.Gen, chain.FP, payload); err != nil {
		return 0, 0, err
	}
	return chain.Gen, len(payload), store.GC(keepGenerations)
}
