package stream_test

// Golden-output fixtures: the canonical SHA-256 digest of each figure
// workload's batch reference (every QueryResult field plus the post-run
// budget metrics — see workload.(*Run).CanonicalDigest) is committed under
// testdata/golden/. The digests pin the batch engine's output across
// refactors, and let the equivalence suite here and the crash-recovery
// harness (internal/checkpoint) verify against one shared reference instead
// of recomputing the batch run per test.
//
// Regenerate after an intentional output change with
//
//	go test ./internal/stream -run TestGolden -update

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/figures"
	"repro/internal/stream"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/digests.json from the current batch engine")

// batchRef returns the per-process cached batch reference for one cataloged
// workload (figures.BatchRef).
func batchRef(t *testing.T, name string) *workload.Run {
	t.Helper()
	run, err := figures.BatchRef(name)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestGolden holds every figure workload's batch output to its committed
// digest (or rewrites the file under -update).
func TestGolden(t *testing.T) {
	digests := make(map[string]string)
	for _, w := range figures.All() {
		digests[w.Name] = batchRef(t, w.Name).CanonicalDigest()
	}

	if *update {
		goldenPath := filepath.Join("..", "..", "testdata", "golden", "digests.json")
		out, err := json.MarshalIndent(digests, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", goldenPath, len(digests))
		return
	}

	checkGolden(t, digests)
}

// committedDigests reads testdata/golden's digests, one per figure workload.
func committedDigests(t *testing.T) map[string]string {
	t.Helper()
	goldenPath, err := figures.GoldenDigestsPath()
	if err != nil {
		t.Fatalf("locating golden digests (regenerate with -update): %v", err)
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden digests (regenerate with -update): %v", err)
	}
	var committed map[string]string
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("decoding golden digests: %v", err)
	}
	return committed
}

// checkGolden holds digests, one per figure workload, to the committed file.
func checkGolden(t *testing.T, digests map[string]string) {
	t.Helper()
	committed := committedDigests(t)
	for name, digest := range digests {
		want, ok := committed[name]
		if !ok {
			t.Errorf("%s: no committed digest (regenerate with -update)", name)
			continue
		}
		if digest != want {
			t.Errorf("%s: batch output digest %s, committed %s — the engine's "+
				"output changed; if intentional, regenerate with -update", name, digest, want)
		}
	}
	for name := range committed {
		if _, ok := digests[name]; !ok {
			t.Errorf("%s: committed digest for unknown workload (regenerate with -update)", name)
		}
	}
}

// symbolOrderEnv names the file of workload names that a child run of
// TestDigestIndependentOfSymbolOrder interns before any workload runs.
const symbolOrderEnv = "STREAM_TEST_SYMBOL_ORDER_NAMES"

// TestDigestIndependentOfSymbolOrder holds every golden digest to not
// depending on symbol numbering: it re-runs this test binary as a child
// that, before any workload runs, interns every golden workload's names in
// reverse name order, interleaved with a few hundred unrelated names, and
// the child must still reproduce testdata/golden.
func TestDigestIndependentOfSymbolOrder(t *testing.T) {
	if path := os.Getenv(symbolOrderEnv); path != "" {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		names := strings.Split(string(raw), "\n")
		const unrelated = 300
		for i := range max(unrelated, len(names)) {
			if i < unrelated {
				events.Intern(fmt.Sprintf("unrelated-%03d.example", i))
			}
			if i < len(names) {
				events.Intern(names[len(names)-1-i])
			}
		}
		digests := make(map[string]string)
		for _, w := range figures.All() {
			cfg, err := w.Config()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Parallelism = 1
			run, err := workload.Execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			digests[w.Name] = run.CanonicalDigest()
		}
		checkGolden(t, digests)
		return
	}

	seen := make(map[string]bool)
	for _, w := range figures.All() {
		cfg, err := w.Config()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range cfg.Dataset.Advertisers {
			seen[a.Site.String()] = true
			for _, p := range a.Products {
				seen[p.String()] = true
			}
		}
		for _, ev := range cfg.Dataset.Events {
			for _, s := range [...]events.Sym{ev.Publisher, ev.Advertiser, ev.Campaign, ev.Product} {
				seen[s.String()] = true
			}
		}
	}
	delete(seen, "")
	names := slices.Sorted(maps.Keys(seen))
	path := filepath.Join(t.TempDir(), "names")
	if err := os.WriteFile(path, []byte(strings.Join(names, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestDigestIndependentOfSymbolOrder$", "-test.count=1")
	cmd.Env = append(os.Environ(), symbolOrderEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child interning %d workload names in reverse order: %v\n%s", len(names), err, out)
	}
}

// TestDigestIndependentOfDeviceOrder holds criteo-cm's golden digest to not
// depending on the order in which the fleet creates devices: a streamed run
// whose fleet first creates every device the run will use, in descending ID
// order, must still reproduce testdata/golden.
func TestDigestIndependentOfDeviceOrder(t *testing.T) {
	const name = "criteo-cm"
	var ids []events.DeviceID
	batchRef(t, name).Fleet.Range(func(d *core.Device) bool {
		ids = append(ids, d.ID())
		return true
	})
	slices.Reverse(ids)
	cfg := figureConfig(t, name)
	cfg.Source = cfg.Dataset.Stream()
	svc, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.CreateDevices(ids)
	srun, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	got := (&workload.Run{Config: cfg, Run: srun}).CanonicalDigest()
	if want := committedDigests(t)[name]; got != want {
		t.Fatalf("%s with its %d devices created in descending ID order: digest %s, committed %s", name, len(ids), got, want)
	}
}
