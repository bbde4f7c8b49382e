// Command bench is this repository's benchmark: four workloads, each run as
// several passes of the system under test in a child process of its own,
// every layer timed from outside. See README.md beside this file.
//
//	bench [-workload W] [-seed N] [-seconds S] [-trace 1] [-aa K]
//
// With -workload it also prints, as its last line, the one-line JSON result
// BENCHMARK.json's harness reads.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) > 2 && os.Args[1] == "-role" && os.Args[2] == "sut" {
		os.Exit(sutMain(os.Args[3:]))
	}
	name := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Uint64("seed", 1, "seed the traces are generated from")
	seconds := flag.Float64("seconds", 34, "measuring time per workload; at least three passes are run")
	trace := flag.Int("trace", 0, "1 = traced run: one plain pass, one with the seam wrappers, the ladder rungs and the probes")
	aa := flag.Int("aa", 0, "run K sets back to back and check that they agree within the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, aa int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// Span files and checkpoint scratch go beside the binary, which run.sh
	// builds into bench/out/.
	outDir := filepath.Dir(exe)
	selected := workloads
	if name != "" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		selected = []workloadSpec{*w}
	}
	measure := func(w *workloadSpec) (*result, error) {
		b := &bench{w: w, seed: seed, exe: exe, outDir: outDir}
		res, err := b.run(seconds, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		res.print(os.Stdout)
		return res, nil
	}
	if aa > 0 {
		return runAA(selected, aa, measure)
	}
	failed := false
	var last *result
	for i := range selected {
		res, err := measure(&selected[i])
		if err != nil {
			return err
		}
		failed = failed || !res.ok()
		last = res
	}
	if name != "" {
		line, err := last.contractLine(traced)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if failed {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// runAA is the A/A check: the same code, settings and seed measured `sets`
// times back to back. For every (workload, metric) pair the sets must agree
// within the metric's bound.
func runAA(selected []workloadSpec, sets int, measure func(*workloadSpec) (*result, error)) error {
	values := map[string][]float64{} // "workload metric" → one value per set
	for set := 1; set <= sets; set++ {
		for i := range selected {
			fmt.Printf("\n#### A/A set %d of %d\n", set, sets)
			res, err := measure(&selected[i])
			if err != nil {
				return err
			}
			if !res.ok() {
				return fmt.Errorf("%s: a correctness check failed", res.w.Name)
			}
			for _, d := range endToEnd {
				key := res.w.Name + " " + d.Name
				values[key] = append(values[key], res.median(d.Name))
			}
		}
	}
	fmt.Printf("\n#### A/A result: %d sets\n", sets)
	fmt.Printf("%-20s %-18s %-36s %8s %8s\n", "workload", "metric", "set values", "gap", "bound")
	over := 0
	for i := range selected {
		for _, def := range endToEnd {
			key := selected[i].Name + " " + def.Name
			gap := aaGap(values[key], def)
			verdict := ""
			if gap > def.Bound {
				verdict = "  OVER"
				over++
			}
			strs := make([]string, len(values[key]))
			for j, v := range values[key] {
				strs[j] = fmt.Sprintf("%.5g", v)
			}
			fmt.Printf("%-20s %-18s %-36s %8.4f %8.4f%s\n", selected[i].Name, def.Name,
				strings.Join(strs, " "), gap, def.Bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are over their bound", over)
	}
	return nil
}

// aaGap is the largest gap between any two set values, as a share of the
// better one.
func aaGap(vals []float64, def metricDef) float64 {
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	if def.Better == "higher" {
		return (hi - lo) / hi
	}
	return (hi - lo) / lo
}
