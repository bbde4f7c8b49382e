// Package figures catalogs the test-scale stand-ins for the paper's figure
// workloads — the scenarios the streaming-vs-batch equivalence suite, the
// golden-output fixtures (testdata/golden/), and the crash-recovery harness
// (internal/checkpoint) all exercise. Keeping the catalog in one place means
// a committed golden digest names exactly the same scenario everywhere, and
// the batch reference for a scenario is computed once per test binary.
package figures

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// Workload is one cataloged scenario: a name (the key into
// testdata/golden/digests.json) and its batch-engine configuration. Config
// returns a fresh Config sharing a lazily built, cached dataset — datasets
// are read-only during execution, so runs may share one.
type Workload struct {
	Name   string
	Config func() (workload.Config, error)
}

// All returns the catalog. Scenario coverage mirrors the paper's evaluation
// matrix at test scale: the three systems on the §6.2 microbenchmark, bias
// measurement (§6.5), an ablation policy override, a truncated query
// schedule, the multi-advertiser Criteo workload for every system, and the
// generator-backed synthetic trace.
func All() []Workload {
	biasSpec := &core.BiasSpec{LastTouch: true}

	microCfg := func(mutate func(*workload.Config)) func() (workload.Config, error) {
		return func() (workload.Config, error) {
			ds, err := micro()
			if err != nil {
				return workload.Config{}, err
			}
			cfg := workload.Config{Dataset: ds, System: workload.CookieMonster, EpsilonG: 2, Seed: 7}
			if mutate != nil {
				mutate(&cfg)
			}
			return cfg, nil
		}
	}
	criteoCfg := func(system workload.System) func() (workload.Config, error) {
		return func() (workload.Config, error) {
			ds, err := criteo()
			if err != nil {
				return workload.Config{}, err
			}
			return workload.Config{Dataset: ds, System: system, EpsilonG: 2, Seed: 11}, nil
		}
	}

	return []Workload{
		{"cookie-monster", microCfg(nil)},
		{"ara-like", microCfg(func(c *workload.Config) { c.System = workload.ARALike })},
		{"ipa-like", microCfg(func(c *workload.Config) { c.System = workload.IPALike })},
		{"cm-bias", microCfg(func(c *workload.Config) { c.Bias = biasSpec })},
		{"ablation-policy", microCfg(func(c *workload.Config) { c.Policy = core.ZeroLossOnlyPolicy{} })},
		{"capped-queries", microCfg(func(c *workload.Config) { c.MaxQueriesPerProduct = 1 })},
		{"criteo-cm", criteoCfg(workload.CookieMonster)},
		{"criteo-ara", criteoCfg(workload.ARALike)},
		{"criteo-ipa", criteoCfg(workload.IPALike)},
		{"synthetic-cm", func() (workload.Config, error) {
			ds, err := synth()
			if err != nil {
				return workload.Config{}, err
			}
			return workload.Config{Dataset: ds, System: workload.CookieMonster, EpsilonG: 2, Seed: 3}, nil
		}},
	}
}

// ByName returns the cataloged workload with the given name.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("figures: unknown workload %q", name)
}

// batchRefs caches each workload's batch reference, computed once per
// process.
var batchRefs sync.Map

type batchRefEntry struct {
	once sync.Once
	run  *workload.Run
	err  error
}

// BatchRef returns the named workload's uninterrupted batch-engine
// reference, computed at parallelism 1 once per process — the shared oracle
// behind the streaming equivalence suite, the golden fixtures
// (testdata/golden/), and the crash-recovery harness (internal/checkpoint).
func BatchRef(name string) (*workload.Run, error) {
	v, _ := batchRefs.LoadOrStore(name, &batchRefEntry{})
	e := v.(*batchRefEntry)
	e.once.Do(func() {
		w, err := ByName(name)
		if err != nil {
			e.err = err
			return
		}
		cfg, err := w.Config()
		if err != nil {
			e.err = err
			return
		}
		cfg.Parallelism = 1
		e.run, e.err = workload.Execute(cfg)
	})
	return e.run, e.err
}

// GoldenDigestsPath locates the committed per-workload digest file
// (testdata/golden/digests.json) by walking up from the working directory —
// test binaries run in their package directory, at varying depths below the
// module root.
func GoldenDigestsPath() (string, error) {
	rel := filepath.Join("testdata", "golden", "digests.json")
	dir := "."
	for i := 0; i < 8; i++ {
		p := filepath.Join(dir, rel)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		dir = filepath.Join(dir, "..")
	}
	return "", fmt.Errorf("figures: %s not found above the working directory", rel)
}

// The datasets are built lazily, once per process, and shared by every
// scenario (and every run) that uses them.
var (
	// micro is the equivalence suite's reduced §6.2 microbenchmark.
	micro = cache(func() (*dataset.Dataset, error) {
		cfg := dataset.DefaultMicroConfig()
		cfg.BatchSize = 100
		cfg.Knob1 = 1.0
		cfg.Knob2 = 0.5
		return dataset.Micro(cfg)
	})
	// criteo is the reduced multi-advertiser Criteo workload.
	criteo = cache(func() (*dataset.Dataset, error) {
		cfg := dataset.DefaultCriteoConfig()
		cfg.Advertisers = 30
		cfg.Users = 3000
		cfg.TotalConversions = 12000
		cfg.MinBatch = 150
		return dataset.Criteo(cfg)
	})
	// synth is the generator-backed synthetic trace, materialized.
	synth = cache(func() (*dataset.Dataset, error) {
		cfg := dataset.DefaultSyntheticConfig()
		cfg.Population = 2000
		cfg.BatchSize = 200
		cfg.ImpressionsPerDay = 0.3
		src, err := dataset.NewSynthetic(cfg)
		if err != nil {
			return nil, err
		}
		return dataset.Materialize(src), nil
	})
)

// cache memoizes one dataset builder.
func cache(build func() (*dataset.Dataset, error)) func() (*dataset.Dataset, error) {
	var once sync.Once
	var ds *dataset.Dataset
	var err error
	return func() (*dataset.Dataset, error) {
		once.Do(func() { ds, err = build() })
		return ds, err
	}
}
