package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/figures"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Harness drives scenarios through the robustness properties: for each spec
// it computes the admitted-event batch oracle, checks the streaming run
// against it bit for bit at several parallelism levels, runs the crash
// matrix (crash at each fault point mid-run, resume, compare digests), and
// collects the degradation report.
type Harness struct {
	// Dataset is the clean base trace every scenario perturbs.
	Dataset *dataset.Dataset
	// Config carries the scenario-independent workload knobs (system,
	// budgets, seed). Its Dataset, Parallelism, LatePolicy and checkpoint
	// fields are managed per run by the harness.
	Config workload.Config
	// Parallelisms are the worker counts the equivalence check runs at.
	// Nil selects {1, 4, GOMAXPROCS}.
	Parallelisms []int
	// FaultPoints is the crash matrix. Nil selects every stream.Point;
	// tests under -short sample a subset.
	FaultPoints []stream.FaultPoint
}

// snapshotEveryDays is the checkpoint cadence of the crash runs: the
// crash-recovery suite's.
const snapshotEveryDays = 14

// DefaultHarness returns the harness the catalog tests, the CLI and the CI
// smoke job share: the figures catalog's "cookie-monster" microbenchmark
// workload, whose clean streaming digest is already pinned by the golden
// fixtures.
func DefaultHarness() (Harness, error) {
	w, err := figures.ByName("cookie-monster")
	if err != nil {
		return Harness{}, err
	}
	cfg, err := w.Config()
	if err != nil {
		return Harness{}, err
	}
	return Harness{Dataset: cfg.Dataset, Config: cfg}, nil
}

// Report is one scenario's robustness outcome — the REPORT_scenarios.json
// row. Counters come from the streaming run, accuracy from its executed
// queries, and the two verdict booleans from the equivalence and crash
// checks.
type Report struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Seed        uint64 `json:"seed"`

	// Admission: delivered = admitted + dropped.
	EventsDelivered int `json:"eventsDelivered"`
	EventsAdmitted  int `json:"eventsAdmitted"`
	EventsDropped   int `json:"eventsDropped"`

	// Query outcomes and budget drain.
	Queries         int                `json:"queries"`
	QueriesExecuted int                `json:"queriesExecuted"`
	DeniedReports   int                `json:"deniedReports"`
	LedgerDenials   uint64             `json:"ledgerDenials"`
	ConsumedEpsilon map[string]float64 `json:"consumedEpsilon"`
	TotalEpsilon    float64            `json:"totalEpsilon"`

	// Accuracy: mean realized RMSRE over executed honest queries, and its
	// ratio to the clean baseline's (1 = parity; 0 until RunCatalog fills
	// it in).
	MeanRMSRE       float64 `json:"meanRMSRE"`
	AccuracyVsClean float64 `json:"accuracyVsClean"`

	// Verdicts.
	Parallelisms         []int  `json:"parallelisms"`
	EquivalentToBatch    bool   `json:"equivalentToBatch"`
	CrashPointsTested    int    `json:"crashPointsTested"`
	CrashResumeIdentical bool   `json:"crashResumeIdentical"`
	Digest               string `json:"digest"`
}

// errInjected is the sentinel the crash matrix's fault hooks return.
var errInjected = errors.New("scenario: injected crash")

// Small group-commit and base-compaction knobs for the checkpointed runs,
// so every durability fault point (group-commit, delta-captured,
// base-compacted) fires several times per scenario and the crash matrix
// covers them. The counting run and every crash/resume run must share
// these: the matrix crashes at firing counts measured on the counting run.
const (
	durableGroupCommitEvents = 64
	durableBaseEveryDeltas   = 2
)

// streamCfg is the per-run streaming configuration: drop-late admission, the
// requested parallelism, no durability (metadata comes from the scenario
// source).
func (h Harness) streamCfg(p int) workload.Config {
	cfg := h.Config
	cfg.LatePolicy = stream.LateDrop
	cfg.Parallelism = p
	cfg.CheckpointDir = ""
	cfg.SnapshotEveryDays = 0
	cfg.Resume = false
	cfg.FaultHook = nil
	return cfg
}

func (h Harness) parallelisms() []int {
	if len(h.Parallelisms) > 0 {
		return h.Parallelisms
	}
	ps := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		ps = append(ps, n)
	}
	return ps
}

func (h Harness) faultPoints() []stream.FaultPoint {
	if len(h.FaultPoints) > 0 {
		return h.FaultPoints
	}
	return stream.Points
}

// Run drives one scenario through every property and returns its report. A
// property violation (stream diverging from the batch oracle, a resume
// diverging from the uninterrupted run, counter mismatches) is returned as
// an error, not a report row: the harness's promise is that a returned
// report describes a run on which every invariant held.
func (h Harness) Run(spec Spec) (*Report, error) {
	if err := spec.Validate(h.Dataset); err != nil {
		return nil, err
	}

	// The batch oracle: materialize the admission rule's verdicts, then
	// run the batch front end — global planning over a bulk-loaded store, one
	// query per executor call, no day clock — over the admitted events.
	admitted, dropped := Admitted(spec.Source(h.Dataset))
	batchCfg := h.Config
	batchCfg.Dataset = admitted
	batchCfg.Parallelism = 1
	ref, err := workload.Execute(batchCfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: batch oracle: %w", spec.Name, err)
	}
	want := ref.CanonicalDigest()

	rep := &Report{
		Name:            spec.Name,
		Description:     spec.Description,
		Seed:            spec.Seed,
		EventsDelivered: len(admitted.Events) + dropped,
		EventsAdmitted:  len(admitted.Events),
		EventsDropped:   dropped,
		Parallelisms:    h.parallelisms(),
		Digest:          want,
	}

	// Equivalence: the streaming run over the full perturbed source must
	// match the oracle bit for bit at every parallelism, and its admission
	// counters must match the pure rule's.
	var run *workload.Run
	for _, p := range rep.Parallelisms {
		r, err := workload.ExecuteSource(h.streamCfg(p), spec.Source(h.Dataset))
		if err != nil {
			return nil, fmt.Errorf("scenario %s: stream(parallelism=%d): %w", spec.Name, p, err)
		}
		if got := r.CanonicalDigest(); got != want {
			return nil, fmt.Errorf(
				"scenario %s: stream(parallelism=%d) diverged from batch oracle: %s != %s",
				spec.Name, p, got, want)
		}
		if r.EventsIngested != rep.EventsDelivered || r.EventsDropped != dropped {
			return nil, fmt.Errorf(
				"scenario %s: admission counters diverged: service drained %d dropped %d, rule says %d/%d",
				spec.Name, r.EventsIngested, r.EventsDropped, rep.EventsDelivered, dropped)
		}
		run = r
	}
	rep.EquivalentToBatch = true

	// Crash matrix: count each fault point's firings in one checkpointed
	// (uninterrupted) run, then crash mid-run at every point and require
	// the resumed run to reproduce the oracle digest exactly.
	counts, err := h.countFaultPoints(spec, want)
	if err != nil {
		return nil, err
	}
	for _, pt := range h.faultPoints() {
		n := counts[pt]
		if n == 0 {
			return nil, fmt.Errorf("scenario %s: fault point %s never fired", spec.Name, pt)
		}
		if err := h.crashAndResume(spec, pt, (n+1)/2, want); err != nil {
			return nil, err
		}
		rep.CrashPointsTested++
	}
	rep.CrashResumeIdentical = true

	// Degradation numbers from the (equivalence-checked) streaming run.
	rep.Queries = len(run.Results)
	for _, res := range run.Results {
		if res.Executed {
			rep.QueriesExecuted++
		}
		rep.DeniedReports += res.DeniedReports
	}
	rep.LedgerDenials = run.BudgetDenials()
	rep.ConsumedEpsilon = make(map[string]float64)
	queriers := make([]string, 0, len(rep.ConsumedEpsilon))
	for q, eps := range run.ConsumedByQuerier() {
		rep.ConsumedEpsilon[q.String()] = eps
		queriers = append(queriers, q.String())
	}
	slices.Sort(queriers) // deterministic float summation order
	for _, q := range queriers {
		rep.TotalEpsilon += rep.ConsumedEpsilon[q]
	}
	var attacker events.Site
	if spec.Adversary != nil {
		attacker = spec.Adversary.Site
	}
	rep.MeanRMSRE = meanHonestRMSRE(run, attacker)
	return rep, nil
}

// meanHonestRMSRE averages the realized RMSRE of executed queries, excluding
// the attacker's own queries (whose accuracy is not a degradation signal).
func meanHonestRMSRE(run *workload.Run, attacker events.Site) float64 {
	sum, n := 0.0, 0
	for _, res := range run.Results {
		if !res.Executed || (attacker != (events.Site{}) && res.Querier == attacker) {
			continue
		}
		sum += res.RMSRE
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// countFaultPoints runs the scenario once, checkpointed and uninterrupted,
// counting how often each fault point fires — the denominators the crash
// matrix uses to crash mid-run rather than at a trivial first firing. The
// run doubles as the "durability does not perturb results" check.
func (h Harness) countFaultPoints(spec Spec, want string) (map[stream.FaultPoint]int, error) {
	dir, err := os.MkdirTemp("", "scenario-count-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	counts := make(map[stream.FaultPoint]int)
	cfg := h.streamCfg(4)
	cfg.CheckpointDir = dir
	cfg.SnapshotEveryDays = snapshotEveryDays
	cfg.GroupCommitEvents = durableGroupCommitEvents
	cfg.BaseEveryDeltas = durableBaseEveryDeltas
	cfg.FaultHook = func(p stream.FaultPoint) error {
		counts[p]++
		return nil
	}
	run, err := workload.ExecuteSource(cfg, spec.Source(h.Dataset))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: checkpointed run: %w", spec.Name, err)
	}
	if got := run.CanonicalDigest(); got != want {
		return nil, fmt.Errorf("scenario %s: checkpointed run diverged from oracle", spec.Name)
	}
	return counts, nil
}

// crashAndResume kills the scenario's streaming run at the at-th firing of
// point, resumes from the checkpoint directory, and requires the completed
// resumed run to match the batch oracle digest bit for bit.
func (h Harness) crashAndResume(spec Spec, point stream.FaultPoint, at int, want string) error {
	dir, err := os.MkdirTemp("", "scenario-crash-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	seen := 0
	cfg := h.streamCfg(4)
	cfg.CheckpointDir = dir
	cfg.SnapshotEveryDays = snapshotEveryDays
	cfg.GroupCommitEvents = durableGroupCommitEvents
	cfg.BaseEveryDeltas = durableBaseEveryDeltas
	cfg.FaultHook = func(p stream.FaultPoint) error {
		if p == point {
			seen++
			if seen == at {
				return errInjected
			}
		}
		return nil
	}
	_, err = workload.ExecuteSource(cfg, spec.Source(h.Dataset))
	switch {
	case err == nil:
		return fmt.Errorf("scenario %s: crash at %s#%d did not fire", spec.Name, point, at)
	case !errors.Is(err, errInjected):
		return fmt.Errorf("scenario %s: crash run at %s#%d: %w", spec.Name, point, at, err)
	}

	rcfg := h.streamCfg(4)
	rcfg.CheckpointDir = dir
	rcfg.SnapshotEveryDays = snapshotEveryDays
	rcfg.GroupCommitEvents = durableGroupCommitEvents
	rcfg.BaseEveryDeltas = durableBaseEveryDeltas
	rcfg.Resume = true
	run, err := workload.ExecuteSource(rcfg, spec.Source(h.Dataset))
	if err != nil {
		return fmt.Errorf("scenario %s: resume after %s#%d: %w", spec.Name, point, at, err)
	}
	if got := run.CanonicalDigest(); got != want {
		return fmt.Errorf("scenario %s: resume after %s#%d diverged: %s != %s",
			spec.Name, point, at, got, want)
	}
	return nil
}

// RunCatalog runs every spec and fills in each report's accuracy-vs-clean
// ratio from the catalog's clean baseline (the spec with no perturbations).
func (h Harness) RunCatalog(specs []Spec) ([]*Report, error) {
	reports := make([]*Report, 0, len(specs))
	var clean *Report
	for _, sp := range specs {
		rep, err := h.Run(sp)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
		if clean == nil && sp.Burst == nil && sp.Late == nil && sp.Churn == nil &&
			sp.Skew == nil && sp.Adversary == nil {
			clean = rep
		}
	}
	if clean != nil && clean.MeanRMSRE > 0 {
		for _, rep := range reports {
			rep.AccuracyVsClean = rep.MeanRMSRE / clean.MeanRMSRE
		}
	}
	return reports, nil
}

// reportFile is the REPORT_scenarios.json shape.
type reportFile struct {
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	GoVersion string    `json:"go"`
	Scenarios []*Report `json:"scenarios"`
}

// WriteBench writes the scenario reports as the machine-readable
// REPORT_scenarios.json artifact CI uploads: a correctness and degradation
// report, not a benchmark (speed and memory come from bench/run.sh).
func WriteBench(path string, reports []*Report) error {
	out, err := json.MarshalIndent(reportFile{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		GoVersion: runtime.Version(),
		Scenarios: reports,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
