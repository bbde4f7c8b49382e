// Package aggregation simulates the trusted aggregation service — the
// MPC (IPA, PAM, Hybrid) or TEE (ARA) of §2.2 — that Cookie Monster treats
// as a black box: it receives encrypted attribution reports, guarantees each
// report is consumed at most once (nonce replay protection), sums a batch,
// and releases the aggregate with Laplace noise calibrated to the query's
// global sensitivity and the ε carried in the reports' authenticated data.
//
// Substitution note (DESIGN.md §3): the MPC/TEE is trusted not to leak
// inputs or intermediate state in the paper's threat model, so an in-process
// implementation that exposes only noisy aggregates preserves everything the
// evaluation measures.
package aggregation

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/stats"
)

// ErrReplayedNonce is returned when a batch contains a report whose nonce
// was already consumed — the replay the nonce protocol exists to stop.
var ErrReplayedNonce = errors.New("aggregation: replayed report nonce")

// ErrEmptyBatch is returned for a query over zero reports.
var ErrEmptyBatch = errors.New("aggregation: empty report batch")

// ErrMixedBatch is returned when a batch mixes reports with inconsistent
// authenticated data (querier, ε, query sensitivity or dimension); the
// service refuses rather than guessing which parameters to enforce.
var ErrMixedBatch = errors.New("aggregation: inconsistent report batch")

// Result is the DP output released to the querier for one summation query.
type Result struct {
	// Aggregate is the noisy coordinate-wise sum of the batch's report
	// histograms.
	Aggregate attribution.Histogram
	// BiasCount is the noisy sum of the κ-scaled bias flags (the side
	// query M₀(D) of Appendix F). Zero-noise-free only if bias
	// measurement was off for the whole batch.
	BiasCount float64
	// Batch is the number of reports aggregated.
	Batch int
	// Epsilon echoes the enforced privacy parameter.
	Epsilon float64
	// NoiseScale is the Laplace scale b = Δquery/ε applied per
	// coordinate.
	NoiseScale float64
}

// Service is the trusted aggregator. It is safe for concurrent use.
type Service struct {
	mech *privacy.LaplaceMechanism

	mu   sync.Mutex
	seen map[core.Nonce]struct{}
	// watermark is the retirement horizon: every nonce at or below it has
	// been consumed by a completed batch and evicted from seen. Submissions
	// at or below the watermark are rejected as replays, so compaction
	// never weakens the one-use guarantee.
	watermark core.Nonce
}

// NewService returns a service drawing noise from rng.
func NewService(rng *stats.RNG) *Service {
	return &Service{
		mech: privacy.NewLaplaceMechanism(rng),
		seen: make(map[core.Nonce]struct{}),
	}
}

// Execute runs one summation query over a batch of reports: it validates
// batch consistency, enforces one-use nonces, sums histograms and bias
// flags, and perturbs every output coordinate with Laplace(Δquery/ε) noise,
// yielding ε-DP for the batch under the query's global sensitivity.
//
// On any error nothing is consumed: a rejected batch can be fixed and
// resubmitted.
func (s *Service) Execute(reports []*core.Report) (*Result, error) {
	if len(reports) == 0 {
		return nil, ErrEmptyBatch
	}
	first := reports[0]
	for _, r := range reports[1:] {
		if r.Querier != first.Querier || r.Epsilon != first.Epsilon ||
			r.QuerySensitivity != first.QuerySensitivity ||
			len(r.Histogram) != len(first.Histogram) {
			return nil, fmt.Errorf("%w: report %d disagrees with batch head",
				ErrMixedBatch, r.Nonce)
		}
	}

	// Atomically claim every nonce; roll back on replay so the caller can
	// drop the offender and retry.
	s.mu.Lock()
	claimed := make([]core.Nonce, 0, len(reports))
	for _, r := range reports {
		if watermark := s.watermark; r.Nonce <= watermark {
			for _, n := range claimed {
				delete(s.seen, n)
			}
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: nonce %d at or below retirement watermark %d",
				ErrReplayedNonce, r.Nonce, watermark)
		}
		if _, dup := s.seen[r.Nonce]; dup {
			for _, n := range claimed {
				delete(s.seen, n)
			}
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: nonce %d", ErrReplayedNonce, r.Nonce)
		}
		s.seen[r.Nonce] = struct{}{}
		claimed = append(claimed, r.Nonce)
	}
	s.mu.Unlock()

	sum := attribution.NewHistogram(len(first.Histogram))
	bias := 0.0
	for _, r := range reports {
		sum.Add(r.Histogram)
		bias += r.BiasFlag
	}

	scale := privacy.Scale(first.QuerySensitivity, first.Epsilon)
	s.mu.Lock() // the RNG stream is not concurrency-safe
	s.mech.Perturb(sum, first.QuerySensitivity, first.Epsilon)
	noisy := s.mech.Perturb([]float64{bias}, first.QuerySensitivity, first.Epsilon)
	s.mu.Unlock()

	return &Result{
		Aggregate:  sum,
		BiasCount:  noisy[0],
		Batch:      len(reports),
		Epsilon:    first.Epsilon,
		NoiseScale: scale,
	}, nil
}

// Compact retires every consumed nonce at or below watermark, reclaiming the
// replay-protection memory a long-running service would otherwise accumulate
// without bound. Callers invoke it on batch completion, once they know no
// legitimate report at or below the watermark can still be submitted (nonces
// are minted monotonically, so any batch whose reports were all generated
// before the watermark qualifies). Retired nonces stay rejected: Execute
// refuses anything at or below the watermark as a replay. The watermark never
// moves backwards; Compact returns the number of entries evicted.
func (s *Service) Compact(watermark core.Nonce) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if watermark <= s.watermark {
		return 0
	}
	s.watermark = watermark
	evicted := 0
	for n := range s.seen {
		if n <= watermark {
			delete(s.seen, n)
			evicted++
		}
	}
	return evicted
}

// SnapshotNonces returns the replay-protection state for checkpointing: the
// retirement watermark and the consumed nonces above it, in ascending order.
func (s *Service) SnapshotNonces() (watermark core.Nonce, seen []core.Nonce) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen = make([]core.Nonce, 0, len(s.seen))
	for n := range s.seen {
		seen = append(seen, n)
	}
	slices.Sort(seen)
	return s.watermark, seen
}

// RestoreNonces reinstates replay-protection state captured by
// SnapshotNonces. Like Compact, it only ratchets: the watermark never moves
// backwards and restored nonces are added to (never replace) the consumed
// set, so replaying an old snapshot cannot weaken the one-use guarantee.
func (s *Service) RestoreNonces(watermark core.Nonce, seen []core.Nonce) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if watermark > s.watermark {
		s.watermark = watermark
	}
	for _, n := range seen {
		if n > s.watermark {
			s.seen[n] = struct{}{}
		}
	}
}
