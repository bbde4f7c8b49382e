package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/events"
)

// The fold is the definition of what a delta means, so these tests
// enumerate it: exhaustively at small bounds against a map-overlay
// reference, at every cadence tick of a real run against the full snapshot,
// and under arbitrary bytes.

// section encodes entries (ascending keys expected of the caller) the way
// capture does.
func section(keys []DevEpoch, blobs [][]byte) []byte {
	var buf []byte
	for i, key := range keys {
		var mark int
		buf, mark = openEntry(buf, key)
		buf = append(buf, blobs[i]...)
		closeLen(buf, mark)
	}
	return buf
}

// TestFoldExhaustive folds every chain of up to three generations over
// 2 devices × 2 epochs, each entry absent or one of two values, at every
// eviction-floor position, and holds the k-way merge to the map overlay.
func TestFoldExhaustive(t *testing.T) {
	keys := []DevEpoch{{Device: 1, Epoch: 0}, {Device: 1, Epoch: 1}, {Device: 2, Epoch: 0}, {Device: 2, Epoch: 1}}
	values := [][]byte{nil, {0xa1}, {0xb2, 0xb2}} // index 0 = absent
	const states = 3 * 3 * 3 * 3
	var gens [states][4]int
	var secs [states][]byte
	for g := range gens {
		var ks []DevEpoch
		var bs [][]byte
		for k, rem := 0, g; k < 4; k, rem = k+1, rem/3 {
			if gens[g][k] = rem % 3; gens[g][k] != 0 {
				ks, bs = append(ks, keys[k]), append(bs, values[gens[g][k]])
			}
		}
		secs[g] = section(ks, bs)
	}
	// The reference: overlay the generations into a map, newest last, then
	// drop what the floor has passed.
	reference := func(out []byte, chain []int, floor events.Epoch) []byte {
		m := map[int]int{}
		for _, g := range chain {
			for k, v := range gens[g] {
				if v != 0 {
					m[k] = v
				}
			}
		}
		for k, key := range keys {
			if v := m[k]; v != 0 && key.Epoch >= floor {
				out = append(append(out, byte(key.Device), byte(key.Epoch)), values[v]...)
			}
		}
		return out
	}
	maxLen := 3
	if testing.Short() {
		maxLen = 2
	}
	folds := 0
	var chain []int
	var got, want []byte
	var walk func()
	walk = func() {
		if len(chain) > 0 {
			in := make([][]byte, len(chain))
			for i, g := range chain {
				in[i] = secs[g]
			}
			for floor := events.Epoch(0); floor <= 2; floor++ {
				got = got[:0]
				err := mergeSections(in, floor, func(key DevEpoch, blob, raw []byte) error {
					if len(raw) != entryHeaderLen+len(blob) || &raw[len(raw)-1] != &blob[len(blob)-1] {
						return fmt.Errorf("raw bytes of %v do not end in its blob", key)
					}
					got = append(append(got, byte(key.Device), byte(key.Epoch)), blob...)
					return nil
				})
				// A generation never carries an entry below its own floor;
				// the merge refuses the chains whose newest one does.
				refused := false
				for k, v := range gens[chain[len(chain)-1]] {
					refused = refused || (v != 0 && keys[k].Epoch < floor)
				}
				if refused {
					if err == nil {
						t.Fatalf("chain %v floor %d: newest generation below its floor was accepted", chain, floor)
					}
					continue
				}
				if want = reference(want[:0], chain, floor); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("chain %v floor %d: merge gave %x (%v), overlay %x", chain, floor, got, err, want)
				}
				folds++
			}
		}
		if len(chain) == maxLen {
			return
		}
		for g := 0; g < states; g++ {
			chain = append(chain, g)
			walk()
			chain = chain[:len(chain)-1]
		}
	}
	walk()
	t.Logf("%d folds", folds)
}

// hostileTrace is a seeded synthetic trace with late re-deliveries mixed in:
// long enough for retention to evict epochs, messy enough for LateDrop to
// leave drop marks.
func hostileTrace(t *testing.T, seed int64) (dataset.Meta, []events.Event) {
	t.Helper()
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Seed = uint64(seed)
	cfg.Population = 300
	cfg.BatchSize = 40
	cfg.DurationDays = 90
	cfg.ImpressionsPerDay = 0.3
	src, err := dataset.NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Materialize(src)
	rng := rand.New(rand.NewSource(seed))
	var evs []events.Event
	nextID := events.EventID(1 << 40)
	for i, ev := range ds.Events {
		evs = append(evs, ev)
		if i > 200 && rng.Intn(25) == 0 {
			late := ds.Events[rng.Intn(i-100)]
			late.ID = nextID
			nextID++
			evs = append(evs, late)
		}
	}
	return src.Meta(), evs
}

// sameButClocks compares two payloads byte for byte, except that the stall
// maxima — wall-clock readings the cadence tick updates between its capture
// and the fault point a test can observe — are zeroed on both sides first.
func sameButClocks(t *testing.T, label string, got, want []byte) {
	t.Helper()
	a, err := parsePayload(got)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	b, err := parsePayload(want)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, h := range []*snapHead{a.head, b.head} {
		h.Durability.MaxSnapshotStall, h.Durability.MaxCaptureStall = 0, 0
	}
	ha, _ := json.Marshal(a.head)
	hb, _ := json.Marshal(b.head)
	if !bytes.Equal(ha, hb) {
		t.Fatalf("%s: heads differ:\n%s\n%s", label, ha, hb)
	}
	for i := range a.sec {
		if !bytes.Equal(a.sec[i], b.sec[i]) {
			t.Fatalf("%s: section %d differs (%d vs %d bytes)", label, i, len(a.sec[i]), len(b.sec[i]))
		}
	}
}

// TestFoldMatchesSnapshotAtEveryTick is the service-level property: at every
// cadence tick of a run with eviction, late drops and base compactions, the
// fold of the chain on disk is the encoding of the full snapshot taken at
// that tick's capture.
func TestFoldMatchesSnapshotAtEveryTick(t *testing.T) {
	meta, evs := hostileTrace(t, 11)
	var svc *Service
	var want []byte // full snapshot at the previous tick's capture
	compared := 0
	cfg := Config{
		Source: &fakeSource{meta: meta, evs: evs}, EpsilonG: 2, Seed: 5, LatePolicy: LateDrop,
		CheckpointDir: t.TempDir(), SnapshotEveryDays: 5, BaseEveryDeltas: 3,
		FaultHook: func(p FaultPoint) error {
			if p != PointDeltaCaptured {
				return nil
			}
			// The previous tick's generation has been harvested, so the
			// chain on disk ends at it (or at the base it compacted into).
			if want != nil {
				chain, _, err := svc.store.LoadChain(0)
				if err != nil || chain == nil {
					return fmt.Errorf("loading chain: %v", err)
				}
				folded, err := foldChain(chain.Payloads)
				if err != nil {
					return err
				}
				sameButClocks(t, fmt.Sprintf("tick %d (%d deltas)", compared, chain.Deltas), folded, want)
				compared++
			}
			var err error
			want, err = svc.fullSnapshot()
			return err
		},
	}
	var err error
	if svc, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	run, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if compared < 10 || run.EvictedRecords == 0 || run.EventsDropped == 0 || run.Durability.BaseCompactions < 3 {
		t.Fatalf("run exercises too little: %d ticks compared, %d evicted, %d dropped, %d compactions",
			compared, run.EvictedRecords, run.EventsDropped, run.Durability.BaseCompactions)
	}
}

// TestDirtyTrackingArmedOnlyForDeltas pins when the delta trackers hold
// state: never on a WAL-only service (no snapshot cadence, so nothing would
// drain them) — fresh, crashed mid-run, or resumed from that crash — and on a
// service with a cadence only until its final base, after which no delta can
// follow.
func TestDirtyTrackingArmedOnlyForDeltas(t *testing.T) {
	meta, evs := hostileTrace(t, 11)
	errCrash := errors.New("crash")
	config := func(dir string, every, crashAt int) Config {
		ingested := 0
		return Config{
			Source: &fakeSource{meta: meta, evs: evs}, EpsilonG: 2, Seed: 5, LatePolicy: LateDrop,
			CheckpointDir: dir, SnapshotEveryDays: every, GroupCommitEvents: 64,
			FaultHook: func(p FaultPoint) error {
				if p == PointEventIngested {
					if ingested++; ingested == crashAt {
						return errCrash
					}
				}
				return nil
			},
		}
	}
	tracking := func(s *Service) bool {
		return s.ledgerVers != nil || s.touched != nil || s.plan.dirty != nil || s.db.DrainDirty() != nil
	}
	for _, every := range []int{0, 5} {
		dir := t.TempDir()
		svc, err := New(config(dir, every, len(evs)/2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Serve(); !errors.Is(err, errCrash) {
			t.Fatalf("cadence %d: crash run: %v", every, err)
		}
		if got, want := tracking(svc), every > 0; got != want {
			t.Errorf("cadence %d: tracking at the crash = %v, want %v", every, got, want)
		}
		resumed, err := ResumeFrom(config(dir, every, 0), dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tracking(resumed), every > 0; got != want {
			t.Errorf("cadence %d: tracking after recovery = %v, want %v", every, got, want)
		}
		run, err := resumed.Serve()
		if err != nil {
			t.Fatal(err)
		}
		if tracking(resumed) {
			t.Errorf("cadence %d: finished service still holds dirty state", every)
		}
		if every > 0 && run.Durability.SnapshotCaptures == 0 {
			t.Errorf("cadence %d: run captured no delta", every)
		}
	}
}

// sampleConfig is the scenario samplePayloads runs, over evs and durable in
// dir ("" = in memory). The IPA-like variant's ε^G of 2 admits the first two
// of the scenario's four queries, whose windows all cover epochs -4 to 0, and
// rejects the other two.
func sampleConfig(evs []events.Event, dir string, central bool) Config {
	cfg := Config{Source: &fakeSource{meta: testMeta(), evs: evs}, FixedEpsilon: 1, EpsilonG: 100}
	if central {
		cfg.System, cfg.EpsilonG = IPALike, 2
	}
	if dir != "" {
		cfg.CheckpointDir, cfg.SnapshotEveryDays, cfg.BaseEveryDeltas = dir, 2, 100
	}
	return cfg
}

// sampleService builds a service for sampleConfig's scenario.
func sampleService(t testing.TB, evs []events.Event, dir string, central bool) *Service {
	t.Helper()
	svc, err := New(sampleConfig(evs, dir, central))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// samplePayloads runs a small durable service, on-device or IPA-like, and
// returns one full base payload and one delta payload it committed.
func samplePayloads(t testing.TB, central bool) (base, delta []byte) {
	t.Helper()
	dir := t.TempDir()
	// An impression per device, so the conversions' reports find relevant
	// events and charge ledger slots.
	var evs []events.Event
	for dev := 1; dev <= 3; dev++ {
		evs = append(evs, events.Event{ID: events.EventID(100 + dev), Kind: events.KindImpression,
			Device: events.DeviceID(dev), Advertiser: events.Intern("nike.example"), Campaign: events.Intern("product-0")})
	}
	for i := 1; i <= 8; i++ {
		evs = append(evs, conv(events.EventID(i), events.DeviceID(1+i%3), i/2))
	}
	run, err := sampleService(t, evs, dir, central).Serve()
	if err != nil {
		t.Fatal(err)
	}
	if central && !slices.ContainsFunc(run.Results, func(r Result) bool { return !r.Executed }) {
		t.Fatal("IPA-like sample run rejected no query")
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names { // sorted: bases first, the final base last of them
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := checkpoint.DecodeGenFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		if frame.Kind == checkpoint.GenKindBase {
			base = frame.Payload
		} else if delta == nil {
			delta = frame.Payload
		}
	}
	if base == nil || delta == nil {
		t.Fatal("run left no base or no delta")
	}
	return base, delta
}

// corruptions derives the named rejected seeds from a valid base payload.
func corruptions(t testing.TB, base []byte) map[string][]byte {
	t.Helper()
	parts, err := parsePayload(base)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets of the devices section's length prefix and first two entries.
	off := len(base) - len(parts.sec[secRecords]) - 4 - len(parts.sec[secDevices]) - 4
	first := off + 4
	n := int(binary.LittleEndian.Uint32(base[first+12:]))
	second := first + entryHeaderLen + n
	mutate := func(fn func(p []byte)) []byte {
		p := bytes.Clone(base)
		fn(p)
		return p
	}
	// Offsets of the epoch of the first ledger slot any device carries (past
	// the entry header, the denial counter, the slot count and the querier)
	// and of the first requested mark's epoch (past the device's last slot).
	slotEpoch, markEpoch := -1, -1
	for at := first; at < first+len(parts.sec[secDevices]); {
		blob := at + entryHeaderLen
		end := blob + int(binary.LittleEndian.Uint32(base[at+12:]))
		slots := int(binary.LittleEndian.Uint32(base[blob+8:]))
		if slots > 0 && slotEpoch < 0 {
			slotEpoch = blob + 16 + int(binary.LittleEndian.Uint32(base[blob+12:]))
		}
		tail := blob + 12
		for ; slots > 0; slots-- {
			tail += 4 + int(binary.LittleEndian.Uint32(base[tail:])) + 12
		}
		if tail < end && markEpoch < 0 {
			markEpoch = tail
		}
		at = end
	}
	if slotEpoch < 0 || markEpoch < 0 {
		t.Fatal("base payload carries no ledger slot or no requested mark")
	}
	return map[string][]byte{
		"truncated-section": base[:len(base)-5],
		"swapped-keys": mutate(func(p []byte) {
			var tmp [8]byte
			copy(tmp[:], p[first:])
			copy(p[first:first+8], p[second:second+8])
			copy(p[second:], tmp[:])
		}),
		"duplicate-key":   mutate(func(p []byte) { copy(p[second:second+8], p[first:first+8]) }),
		"oversized-count": mutate(func(p []byte) { binary.LittleEndian.PutUint32(p[first+12:], 1<<31) }),
		// The first record's epoch pushed below the head's eviction floor.
		"record-below-floor": mutate(func(p []byte) {
			binary.LittleEndian.PutUint32(p[off+4+len(parts.sec[secDevices])+4+8:], 1<<31)
		}),
		// Well-formed throughout: only restore, which knows the scenario's
		// epoch span, can refuse it.
		"wild-slot-epoch":      mutate(func(p []byte) { binary.LittleEndian.PutUint32(p[slotEpoch:], 1<<30) }),
		"wild-requested-epoch": mutate(func(p []byte) { binary.LittleEndian.PutUint32(p[markEpoch:], 1<<30) }),
		"schema-3-json":        []byte(`{"schema":3,"config":{"epochDays":7},"devices":[],"records":[],"results":[]}`),
	}
}

// wildCentralEpoch moves an IPA-like base's first central ledger row to an
// epoch no query window reaches. The head stays canonical JSON and the frame
// would stay CRC-valid: only restore, which knows the span, can refuse it.
func wildCentralEpoch(t testing.TB, centralBase []byte) []byte {
	t.Helper()
	c, err := openChain([][]byte{centralBase})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.head.Central) == 0 {
		t.Fatal("IPA-like base payload carries no central row")
	}
	c.head.Central[0].Epoch = 1 << 30
	p, err := c.encode()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzSnapPayload from a fresh run")

const snapCorpusDir = "testdata/fuzz/FuzzSnapPayload"

// TestSnapCorpus keeps the checked-in fuzz seeds honest: the valid ones must
// still be accepted by this decoder and restore into a fresh fleet, and an
// IPA-like one's central rows into a fresh central ledger (a head field added
// without regenerating them would quietly turn them into rejects), the broken
// ones still refused for the reason their name gives — and a refusal at
// restore comes before any ledger lane, requested mark or central row exists.
func TestSnapCorpus(t *testing.T) {
	if *updateCorpus {
		base, delta := samplePayloads(t, false)
		seeds := corruptions(t, base)
		seeds["valid-base"], seeds["valid-delta"] = base, delta
		centralBase, _ := samplePayloads(t, true)
		seeds["valid-central-base"], seeds["wild-central-epoch"] = centralBase, wildCentralEpoch(t, centralBase)
		for name, p := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", p)
			if err := os.WriteFile(filepath.Join(snapCorpusDir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, wantErr := range map[string]string{
		"valid-base":           "",
		"valid-delta":          "",
		"valid-central-base":   "",
		"truncated-section":    "exceeds its",
		"swapped-keys":         "not strictly ascending",
		"duplicate-key":        "not strictly ascending",
		"oversized-count":      "claims 2147483648 bytes",
		"record-below-floor":   "below its own generation's floor",
		"wild-slot-epoch":      "slot epoch 1073741824 outside [-5, 4]",
		"wild-requested-epoch": "requested epoch 1073741824 outside [-5, 4]",
		"wild-central-epoch":   "central epoch 1073741824 outside [-5, 4]",
		"schema-3-json":        "unsupported snapshot schema 3",
	} {
		p := readSeed(t, name)
		var out []byte
		c, err := openChain([][]byte{p})
		if err == nil {
			out, err = c.encode()
		}
		if err == nil {
			svc := sampleService(t, nil, "", strings.Contains(name, "central"))
			if err = svc.restoreDevices(c, make(siteIntern)); err != nil {
				svc.fleet.Range(func(d *core.Device) bool {
					marks := 0
					d.RangeRequested(func(events.Epoch, []events.Site, []float64) { marks++ })
					if len(d.Ledger()) != 0 || marks != 0 {
						t.Errorf("%s: device %d had %d ledger rows and %d requested epochs restored before the refusal",
							name, d.ID(), len(d.Ledger()), marks)
					}
					return true
				})
			} else if err = svc.restoreCentral(c.head.Central); err != nil && svc.central != nil && len(svc.central.Rows()) != 0 {
				t.Errorf("%s: %d central rows restored before the refusal", name, len(svc.central.Rows()))
			}
		}
		switch {
		case wantErr == "" && (err != nil || !bytes.Equal(out, p)):
			t.Errorf("%s: valid seed no longer folds to itself and restores: %v", name, err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%s: err = %v, want %q", name, err, wantErr)
		}
	}
}

// readSeed reads one checked-in FuzzSnapPayload seed.
func readSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(snapCorpusDir, name))
	if err != nil {
		t.Fatal(err)
	}
	var p []byte
	if _, err := fmt.Sscanf(string(raw), "go test fuzz v1\n[]byte(%q)", &p); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// FuzzSnapPayload holds the payload decoder to its contract: arbitrary bytes
// never panic — alone, folded over a valid base, or handed entry by entry to
// the blob decoders restore uses, device rows and requested marks through
// restore's epoch bound into a real ledger, central rows through it into an
// IPA-like service's — and whatever the fold accepts it re-encodes byte for
// byte, so the decoder cannot quietly normalize a payload this code did not
// write.
func FuzzSnapPayload(f *testing.F) {
	base, delta := samplePayloads(f, false)
	centralBase, _ := samplePayloads(f, true)
	f.Add(base)
	f.Add(delta)
	f.Add(centralBase)
	f.Add(wildCentralEpoch(f, centralBase))
	for _, p := range corruptions(f, base) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		_, _ = foldChain([][]byte{base, p})
		c, err := openChain([][]byte{p})
		if err != nil {
			return
		}
		out, err := c.encode()
		if err != nil {
			return // a section failed its walk
		}
		if !bytes.Equal(out, p) {
			t.Fatalf("accepted payload re-encodes to %d different bytes (from %d)", len(out), len(p))
		}
		// Ledger lanes are dense in the epoch: a fuzzed slot, mark or central
		// epoch that got past restore's bound would size an array and stall the
		// fuzzer.
		_ = sampleService(t, nil, "", false).restoreDevices(c, make(siteIntern))
		_ = sampleService(t, nil, "", true).restoreCentral(c.head.Central)
		_ = c.merge(secRecords, func(_ DevEpoch, blob, _ []byte) error {
			_, _ = events.UnmarshalEvents(blob)
			return nil
		})
	})
}

// TestResumeRefusesWildCentralEpoch pins restore's epoch bound on the
// central ledger: a CRC-valid base whose head carries a central row at an
// epoch no query window reaches must fail the resume, not size the ledger's
// dense lane out to it.
func TestResumeRefusesWildCentralEpoch(t *testing.T) {
	dir := t.TempDir()
	if _, err := checkpoint.NewStore(dir, nil).WriteBase(1, readSeed(t, "wild-central-epoch")); err != nil {
		t.Fatal(err)
	}
	_, err := ResumeFrom(sampleConfig(nil, dir, true), dir)
	if err == nil || !strings.Contains(err.Error(), "central epoch 1073741824 outside [-5, 4]") {
		t.Fatalf("resume over a wild central epoch: err = %v", err)
	}
}

// TestResumeRefusesSchema3 pins that a payload of a retired schema — the
// pre-binary JSON document, the binary layout with a requested section, or
// the layout with per-slot capacities — in an otherwise intact directory
// (frame, CRC and name all valid) fails the resume with the schema error
// instead of being skipped like corruption, which would silently restart the
// run from its source. The refusal comes from the chain's parse, before
// restore could create a device row or a requested mark.
//
// The schema-5 directory, testdata/ckpt-53ceb69, is a real one: written by
// commit 53ceb69 with a run (fixed ε 1, ε^G 100, a snapshot every 2 days,
// group commits of 2) crashed at its 20th ingested event, one base and
// three deltas.
func TestResumeRefusesSchema3(t *testing.T) {
	writeBase := func(payload []byte) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			if _, err := checkpoint.NewStore(dir, nil).WriteBase(1, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, fill := range map[string]func(t *testing.T, dir string){
		"schema 3": writeBase([]byte(`{"schema":3,"config":{"epochDays":7},"devices":[],"records":[],"results":[]}`)),
		"schema 4": writeBase(binary.LittleEndian.AppendUint32(nil, 4)),
		"schema 5": func(t *testing.T, dir string) {
			if err := os.CopyFS(dir, os.DirFS("testdata/ckpt-53ceb69")); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fill(t, dir)
			_, err := ResumeFrom(Config{Source: &fakeSource{meta: testMeta()}, FixedEpsilon: 1, EpsilonG: 100,
				CheckpointDir: dir}, dir)
			if err == nil || !strings.Contains(err.Error(), "unsupported snapshot "+name) {
				t.Fatalf("resume over a %s directory: err = %v", name, err)
			}
			chain, _, err := checkpoint.NewStore(dir, nil).LoadChain(0)
			if err != nil || chain == nil {
				t.Fatalf("%s directory does not load as an intact chain: %v", name, err)
			}
			if _, err := openChain(chain.Payloads); err == nil {
				t.Fatalf("%s chain parses: its refusal came after restore began", name)
			}
		})
	}
}
