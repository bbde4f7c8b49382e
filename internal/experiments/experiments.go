// Package experiments contains one harness per table/figure of the paper's
// evaluation (§6): each builds the figure's dataset, runs the workload under
// the three systems, and returns both structured results (for tests and
// benchmarks) and printable tables with the same rows/series the paper
// reports. The per-experiment index in DESIGN.md maps each harness to its
// figure.
package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/workload"
)

// Options tunes harness scale.
type Options struct {
	// Quick shrinks datasets so a harness finishes in roughly a second;
	// used by unit tests and the smoke benchmarks. Full-scale runs (the
	// default) regenerate the figures at the scaled-down sizes recorded
	// in DESIGN.md (§3).
	Quick bool
	// Seed offsets all dataset and noise seeds, for replication studies.
	Seed uint64
	// Parallelism bounds each workload run's report-generation worker
	// pool (0 = GOMAXPROCS, 1 = sequential). Results are identical for
	// any value; the knob only trades wall-clock for cores.
	Parallelism int
	// Streaming routes every workload run through the online measurement
	// service (internal/stream) instead of the batch engine: events are
	// ingested as a day-ordered stream and queries fire as their batches
	// fill. Results are bit-identical to batch mode (DESIGN.md §6), so
	// every figure reproduces exactly; the knob exists to exercise the
	// streaming path at full experiment scale.
	Streaming bool
	// CheckpointDir makes every streaming run crash-safe (DESIGN.md §8):
	// run i of the invocation persists its WAL and snapshots under
	// CheckpointDir/run-i. Implies Streaming semantics for durability;
	// ignored in batch mode.
	CheckpointDir string
	// SnapshotEveryDays is the snapshot cadence inside CheckpointDir
	// (0 = WAL only during the run).
	SnapshotEveryDays int
	// GroupCommitEvents batches WAL fsyncs: the log is fsynced after this
	// many appended events (0 = only at snapshot rotations and at suspend
	// or completion).
	GroupCommitEvents int
	// Resume restarts crashed runs from CheckpointDir's durable state:
	// each run-i that already completed is replayed from its final
	// snapshot, and the interrupted one recovers and continues. The run-i
	// numbering is process-global and deterministic, so a resuming process
	// must re-run the same selection the crashed process ran (as the CLI
	// does); a mispaired directory is refused by the snapshot's scenario
	// fingerprint rather than silently mixed in.
	Resume bool
}

// runCounter numbers workload runs in process-global order, giving each its
// own checkpoint subdirectory. The order is deterministic for a fixed
// harness selection, which is what makes run-i pairing stable between a
// crashed process and the process resuming it.
var runCounter atomic.Int64

// run executes one workload configuration in the mode Options selects —
// the single seam through which every harness reaches the engine.
func (o Options) run(cfg workload.Config) (*workload.Run, error) {
	if o.CheckpointDir != "" {
		cfg.CheckpointDir = filepath.Join(o.CheckpointDir,
			fmt.Sprintf("run-%d", runCounter.Add(1)-1))
		cfg.SnapshotEveryDays = o.SnapshotEveryDays
		cfg.GroupCommitEvents = o.GroupCommitEvents
		cfg.Resume = o.Resume
		return workload.ExecuteStream(cfg)
	}
	if o.Streaming {
		return workload.ExecuteStream(cfg)
	}
	return workload.Execute(cfg)
}

// Table is a printable result table: one per figure panel.
type Table struct {
	// ID names the panel, e.g. "fig4a".
	ID string
	// Title describes the panel, e.g. "avg budget vs knob1".
	Title string
	// Columns are the header names.
	Columns []string
	// Rows hold the formatted cells.
	Rows [][]string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// f formats a float compactly for table cells.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.3e", v)
	}
}

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
