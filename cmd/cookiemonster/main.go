// Command cookiemonster regenerates the paper's evaluation figures
// (Figs. 4–7 and the Appendix B latency study) and prints each panel as a
// table of the same rows/series the paper plots.
//
// Usage:
//
//	cookiemonster [-quick] [-seed N] [-parallel N] [fig4|fig5|fig6|fig7|appb|ablation|headline|scenarios|all]
//
// The scenarios target runs the hostile-traffic catalog (internal/scenario)
// through the robustness harness; -scenario selects one catalog entry and
// -scenario-out writes the REPORT_scenarios.json artifact.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

// tabler is any figure result that renders to tables.
type tabler interface {
	Tables() []experiments.Table
}

func main() {
	quick := flag.Bool("quick", false, "run reduced-scale experiments")
	seed := flag.Uint64("seed", 0, "seed offset for datasets and noise")
	parallel := flag.Int("parallel", 0,
		"report-generation workers per batch (0 = GOMAXPROCS, 1 = sequential; results are identical)")
	scenarioName := flag.String("scenario", "",
		"with the scenarios target: run a single named hostile-traffic scenario "+
			"from the catalog instead of all of them (see README for the list)")
	scenarioOut := flag.String("scenario-out", "",
		"with the scenarios target: also write the robustness report as a "+
			"REPORT_scenarios.json artifact at this path")
	flag.Parse()

	target := "all"
	if flag.NArg() > 0 {
		target = flag.Arg(0)
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed, Parallelism: *parallel}

	harnesses := map[string]func(experiments.Options) (tabler, error){
		"fig4":     func(o experiments.Options) (tabler, error) { return experiments.Fig4(o) },
		"fig5":     func(o experiments.Options) (tabler, error) { return experiments.Fig5(o) },
		"fig6":     func(o experiments.Options) (tabler, error) { return experiments.Fig6(o) },
		"fig7":     func(o experiments.Options) (tabler, error) { return experiments.Fig7(o) },
		"appb":     func(o experiments.Options) (tabler, error) { return experiments.AppendixB(o) },
		"ablation": func(o experiments.Options) (tabler, error) { return experiments.Ablation(o) },
		"headline": func(o experiments.Options) (tabler, error) { return experiments.Headline(o) },
		"scenarios": func(o experiments.Options) (tabler, error) {
			return experiments.Scenarios(o, *scenarioName, *scenarioOut)
		},
	}
	// The scenarios target is opt-in: "all" keeps reproducing the paper's
	// figures, and the robustness gauntlet runs when asked for by name.
	order := []string{"fig4", "fig5", "fig6", "fig7", "appb", "ablation", "headline"}

	var selected []string
	if target == "all" {
		selected = order
	} else if _, ok := harnesses[target]; ok {
		selected = []string{target}
	} else {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want fig4|fig5|fig6|fig7|appb|ablation|headline|scenarios|all)\n", target)
		os.Exit(2)
	}

	for _, name := range selected {
		start := time.Now()
		res, err := harnesses[name](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		for _, t := range res.Tables() {
			fmt.Println(t.Render())
		}
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
