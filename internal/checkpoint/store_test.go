package checkpoint

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	iofs "io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// EncodeGenFrame frames one snapshot generation in memory: the header
// writeGen writes, then the payload. The store never builds this buffer; it
// is the reference its files are held to.
func EncodeGenFrame(kind byte, gen uint64, parentFP, chainFP uint32, payload []byte) []byte {
	return append(appendGenHeader(nil, kind, gen, parentFP, chainFP, crcOf(payload), len(payload)), payload...)
}

// crcOf is a payload's CRC-32C, the second argument of ChainFP.
func crcOf(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// chainPayloads extracts the payloads of a loaded chain as strings.
func chainPayloads(c *Chain) []string {
	out := make([]string, len(c.Payloads))
	for i, p := range c.Payloads {
		out[i] = string(p)
	}
	return out
}

func TestGenFrameRoundtrip(t *testing.T) {
	payload := []byte(`{"day": 42}`)
	baseFP := ChainFP(0, crcOf(payload))

	raw := EncodeGenFrame(GenKindBase, 7, 0, baseFP, payload)
	g, err := DecodeGenFrame(raw)
	if err != nil {
		t.Fatalf("decoding base frame: %v", err)
	}
	if g.Kind != GenKindBase || g.Gen != 7 || g.ParentFP != 0 || !bytes.Equal(g.Payload, payload) {
		t.Fatalf("base frame roundtrip: %+v", g)
	}

	deltaFP := ChainFP(baseFP, crcOf(payload))
	raw = EncodeGenFrame(GenKindDelta, 8, baseFP, deltaFP, payload)
	g, err = DecodeGenFrame(raw)
	if err != nil {
		t.Fatalf("decoding delta frame: %v", err)
	}
	if g.Kind != GenKindDelta || g.Gen != 8 || g.ParentFP != baseFP || g.ChainFP != deltaFP {
		t.Fatalf("delta frame roundtrip: %+v", g)
	}
}

// TestStoreWritesEncodedFrames holds the files the store writes — header and
// payload written one after the other — to the in-memory frame, byte for
// byte, for every kind of generation.
func TestStoreWritesEncodedFrames(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(dir, nil)
	base, delta, compacted := []byte("base payload"), []byte("delta payload"), []byte{}
	baseFP, err := st.WriteBase(1, base)
	if err != nil {
		t.Fatal(err)
	}
	deltaFP, err := st.WriteDelta(2, baseFP, delta)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteBaseLinked(2, deltaFP, compacted); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{
		"base-00000001.ckpt":  EncodeGenFrame(GenKindBase, 1, 0, baseFP, base),
		"delta-00000002.ckpt": EncodeGenFrame(GenKindDelta, 2, baseFP, deltaFP, delta),
		"base-00000002.ckpt":  EncodeGenFrame(GenKindBase, 2, 0, deltaFP, compacted),
	} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %x\nwant %x", name, got, want)
		}
	}
}

// TestShortPayloadWriteCommitsNothing lands an injected short write on the
// payload write, the second of a generation's two: no generation is
// committed, nothing staged is left behind, and LoadChain falls back to the
// intact base below it.
func TestShortPayloadWriteCommitsNothing(t *testing.T) {
	// The fault rolls once per Write: pick the seed whose first roll (the
	// header) misses and whose second (the payload) hits.
	seed := uint64(0)
	for probe := NewFaultFS(nil, FaultSpec{ShortWrite: 0.5}); ; seed++ {
		probe.rng = seed
		if !probe.hit(0.5) && probe.hit(0.5) {
			break
		}
	}
	dir := t.TempDir()
	fp, err := NewStore(dir, nil).WriteBase(1, []byte("intact base"))
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(nil, FaultSpec{Seed: seed, ShortWrite: 0.5, MaxFaults: 1})
	payload := []byte("a payload that is not 41 bytes long")
	_, err = NewStore(dir, ffs).WriteDelta(2, fp, payload)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("of %d bytes", len(payload))) {
		t.Fatalf("WriteDelta: err = %v, want a short write of the %d-byte payload", err, len(payload))
	}
	if ffs.Injected() != 1 {
		t.Fatalf("injected %d faults, want 1", ffs.Injected())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "base-00000001.ckpt" {
		t.Fatalf("directory after the failed write: %v", entries)
	}
	chain, fallbacks, err := NewStore(dir, nil).LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if chain == nil || fallbacks != 0 || chain.Gen != 1 || chain.Deltas != 0 ||
		string(chain.Payloads[0]) != "intact base" {
		t.Fatalf("chain %+v, %d fallbacks; want the intact base alone", chain, fallbacks)
	}
}

func TestDecodeGenFrameRefusesCorruption(t *testing.T) {
	payload := []byte("state")
	fp := ChainFP(0, crcOf(payload))
	valid := EncodeGenFrame(GenKindBase, 3, 0, fp, payload)

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		raw := mutate(bytes.Clone(valid))
		if _, err := DecodeGenFrame(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}

	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("truncated header", func(b []byte) []byte { return b[:10] })
	corrupt("truncated payload", func(b []byte) []byte { return b[:len(b)-1] })
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	corrupt("bad version", func(b []byte) []byte { b[8] ^= 0xff; return b })
	corrupt("bad kind", func(b []byte) []byte { b[12] = 99; return b })
	corrupt("flipped payload bit", func(b []byte) []byte { b[len(b)-1] ^= 1; return b })
	corrupt("inflated length", func(b []byte) []byte { b[29]++; return b })

	// A delta whose linkage was tampered with must be refused even though
	// its payload CRC still holds.
	deltaFP := ChainFP(fp, crcOf(payload))
	tampered := EncodeGenFrame(GenKindDelta, 4, fp, deltaFP, payload)
	tampered[21] ^= 1 // parentFP byte
	if _, err := DecodeGenFrame(tampered); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tampered delta linkage: got %v, want ErrCorrupt", err)
	}
}

func TestLoadChainFollowsFingerprints(t *testing.T) {
	st := NewStore(t.TempDir(), nil)
	fp, err := st.WriteBase(1, []byte("base1"))
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := st.WriteDelta(2, fp, []byte("delta2"))
	if err != nil {
		t.Fatal(err)
	}
	fp3, err := st.WriteDelta(3, fp2, []byte("delta3"))
	if err != nil {
		t.Fatal(err)
	}
	// A delta naming a stale parent (simulating a crash that lost its true
	// parent) must not be followed.
	if _, err := st.WriteDelta(4, 0xdeadbeef, []byte("orphan4")); err != nil {
		t.Fatal(err)
	}

	chain, fallbacks, err := st.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if chain == nil || fallbacks != 0 {
		t.Fatalf("chain %v, fallbacks %d", chain, fallbacks)
	}
	if chain.BaseGen != 1 || chain.Gen != 3 || chain.FP != fp3 || chain.Deltas != 2 {
		t.Fatalf("chain head: %+v", chain)
	}
	want := []string{"base1", "delta2", "delta3"}
	if got := chainPayloads(chain); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("payload order %v, want %v", got, want)
	}

	// A compacted base keeps the head's identity: replacing gens 1–3 with a
	// base at (3, fp3) must leave later deltas chaining on unchanged.
	if err := st.WriteBaseLinked(3, fp3, []byte("compacted3")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteDelta(5, fp3, []byte("delta5")); err != nil {
		t.Fatal(err)
	}
	chain, _, err = st.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if chain.BaseGen != 3 || chain.Gen != 5 || chain.Deltas != 1 {
		t.Fatalf("post-compaction chain: %+v", chain)
	}
	want = []string{"compacted3", "delta5"}
	if got := chainPayloads(chain); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-compaction payloads %v, want %v", got, want)
	}
}

func TestLoadChainFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(dir, nil)
	fp1, err := st.WriteBase(1, []byte("base1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteDelta(2, fp1, []byte("delta2")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteBase(3, []byte("base3")); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the newest base: recovery must fall back to the older
	// base plus its delta, counting the corrupt file.
	path := filepath.Join(dir, "base-00000003.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	chain, fallbacks, err := st.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if fallbacks != 1 {
		t.Fatalf("fallbacks %d, want 1", fallbacks)
	}
	if chain == nil || chain.BaseGen != 1 || chain.Gen != 2 {
		t.Fatalf("fallback chain: %+v", chain)
	}

	// With every generation corrupt, LoadChain reports nothing intact —
	// never an error, never corrupt payloads. It refuses both bases; the
	// delta sits above no intact base, so it is never read.
	for _, name := range []string{"base-00000001.ckpt", "delta-00000002.ckpt"} {
		if err := os.Truncate(filepath.Join(dir, name), 5); err != nil {
			t.Fatal(err)
		}
	}
	chain, fallbacks, err = st.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if chain != nil || fallbacks != 2 {
		t.Fatalf("all-corrupt store: chain %v, fallbacks %d", chain, fallbacks)
	}
}

func TestGCKeepsNewestGenerations(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(dir, nil)
	fp := uint32(0)
	for gen := uint64(1); gen <= 6; gen++ {
		var err error
		if gen%3 == 1 {
			fp, err = st.WriteBase(gen, []byte(fmt.Sprintf("base%d", gen)))
		} else {
			fp, err = st.WriteDelta(gen, fp, []byte(fmt.Sprintf("delta%d", gen)))
		}
		if err != nil {
			t.Fatal(err)
		}
		w, err := st.OpenWALSegment(gen)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Bases at 1 and 4; keep=1 retains base 4 and everything above it,
	// including WAL segment 4 (records appended after capture 4).
	if err := st.GC(1); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{
		"base-00000004.ckpt",
		"delta-00000005.ckpt", "delta-00000006.ckpt",
		"wal-00000004.log", "wal-00000005.log", "wal-00000006.log",
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("after GC: %v, want %v", names, want)
	}

	chain, _, err := st.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if chain == nil || chain.BaseGen != 4 || chain.Gen != 6 {
		t.Fatalf("chain after GC: %+v", chain)
	}

	// MaxGen never shrinks below a number any file has used.
	max, err := st.MaxGen()
	if err != nil {
		t.Fatal(err)
	}
	if max != 6 {
		t.Fatalf("MaxGen %d, want 6", max)
	}
}

func TestGCSkipsCorruptBases(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(dir, nil)
	for gen := uint64(1); gen <= 3; gen++ {
		if _, err := st.WriteBase(gen, []byte(fmt.Sprintf("base%d", gen))); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest base: it is not a recovery point, so keep=1 must
	// retain base 2, not count base 3 toward the quota.
	path := filepath.Join(dir, "base-00000003.ckpt")
	raw, _ := os.ReadFile(path)
	raw[0] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.GC(1); err != nil {
		t.Fatal(err)
	}
	chain, _, err := st.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if chain == nil || chain.BaseGen != 2 {
		t.Fatalf("chain after GC with corrupt head: %+v", chain)
	}
}

func TestFaultFSTornRenameDetected(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FaultSpec{Seed: 7, TornRename: 1, MaxFaults: 1})
	st := NewStore(dir, ffs)

	if _, err := st.WriteBase(1, []byte("good base")); err == nil {
		// Torn renames are silent; the corruption surfaces on read-back.
		t.Log("torn rename reported success, as a real interrupted rename would")
	}
	if ffs.Injected() != 1 {
		t.Fatalf("injected %d faults, want 1", ffs.Injected())
	}
	chain, fallbacks, err := st.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	// The torn destination is either absent (zero-length prefix decode
	// fails) or a refused partial frame — never served as state.
	if chain != nil && string(chain.Payloads[0]) != "good base" {
		t.Fatalf("served corrupt payload %q", chain.Payloads[0])
	}
	if chain == nil && fallbacks == 0 {
		t.Fatal("torn rename left nothing and counted no fallback")
	}
}

func TestFaultFSBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FaultSpec{Seed: 11, BitFlip: 1, MaxFaults: 1})
	st := NewStore(dir, ffs)

	if _, err := st.WriteBase(1, []byte("flip target payload")); err != nil {
		t.Fatal(err)
	}
	if ffs.Injected() != 1 {
		t.Fatalf("injected %d faults, want 1", ffs.Injected())
	}
	// The invariant: recovery never serves bytes that differ from what was
	// committed. A flip in the payload or a checked header field is refused
	// (fallback); a flip confined to a base's unverifiable chain-fingerprint
	// field merely detaches later deltas — the payload served is intact.
	chain, fallbacks, err := st.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if chain != nil && string(chain.Payloads[0]) != "flip target payload" {
		t.Fatalf("served corrupt payload %q", chain.Payloads[0])
	}
	if chain == nil && fallbacks != 1 {
		t.Fatalf("refused base but counted %d fallbacks", fallbacks)
	}

	// The budget is spent: a later clean base always wins.
	if _, err := st.WriteBase(2, []byte("clean base")); err != nil {
		t.Fatal(err)
	}
	chain, _, err = st.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if chain == nil || string(chain.Payloads[0]) != "clean base" {
		t.Fatalf("chain %+v, want the clean base", chain)
	}
}

func TestFaultFSDeterministic(t *testing.T) {
	run := func() (faults int, names []string) {
		dir := t.TempDir()
		ffs := NewFaultFS(nil, FaultSpec{
			Seed: 42, ShortWrite: 0.3, FsyncFail: 0.2, TornRename: 0.3, BitFlip: 0.2,
		})
		st := NewStore(dir, ffs)
		fp := uint32(0)
		for gen := uint64(1); gen <= 8; gen++ {
			if gen%4 == 1 {
				fp, _ = st.WriteBase(gen, []byte(fmt.Sprintf("base%d", gen)))
			} else {
				fp, _ = st.WriteDelta(gen, fp, []byte(fmt.Sprintf("delta%d", gen)))
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			info, _ := e.Info()
			names = append(names, fmt.Sprintf("%s:%d", e.Name(), info.Size()))
		}
		return ffs.Injected(), names
	}
	faults1, names1 := run()
	faults2, names2 := run()
	if faults1 != faults2 || fmt.Sprint(names1) != fmt.Sprint(names2) {
		t.Fatalf("same seed diverged: %d faults %v vs %d faults %v",
			faults1, names1, faults2, names2)
	}
	if faults1 == 0 {
		t.Fatal("high fault rates injected nothing; the injector is inert")
	}
}

// FuzzDeltaFrame holds the delta-frame decoder to its contract: arbitrary
// bytes never panic, and every failure — truncation, tampered linkage,
// flipped payload bits — is refused with ErrCorrupt. A frame that decodes
// cleanly must re-encode to exactly the input bytes, so the decoder cannot
// silently normalize (and thus mask) malformed frames.
func FuzzDeltaFrame(f *testing.F) {
	payload := []byte(`{"devices":[{"id":1}]}`)
	baseFP := ChainFP(0, crcOf(payload))
	f.Add(EncodeGenFrame(GenKindBase, 1, 0, baseFP, payload))
	f.Add(EncodeGenFrame(GenKindDelta, 2, baseFP, ChainFP(baseFP, crcOf(payload)), payload))
	f.Add(EncodeGenFrame(GenKindDelta, 2, baseFP, ChainFP(baseFP, crcOf(payload)), payload)[:20])
	f.Add([]byte("CMGEN001 not a frame at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		g, err := DecodeGenFrame(raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode failure not wrapped in ErrCorrupt: %v", err)
			}
			return
		}
		if !bytes.Equal(EncodeGenFrame(g.Kind, g.Gen, g.ParentFP, g.ChainFP, g.Payload), raw) {
			t.Fatalf("accepted frame does not re-encode to itself: %+v", g)
		}
	})
}

// TestGenFramesPinned pins the bytes of one base frame and one delta frame,
// as the store wrote them before ChainFP took the payload CRC instead of
// the payload: the fingerprints and the frame layout must not move.
func TestGenFramesPinned(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(dir, nil)
	fp, err := st.WriteBase(1, []byte("base payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteDelta(2, fp, []byte("delta payload")); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"base-00000001.ckpt":  "434d47454e303031010000000101000000000000000000000084ec5be50c0000000000000084ec5be562617365207061796c6f6164",
		"delta-00000002.ckpt": "434d47454e3030310100000002020000000000000084ec5be516a520ad0d00000000000000f293ebe564656c7461207061796c6f6164",
	} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(raw); got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// refLoadChain is the read-everything LoadChain the store had before it
// read newest-first: it decodes every generation file, counts each refused
// one as a fallback, and then picks the newest intact base and follows
// fingerprints upward. LoadChain is held to its chain.
func refLoadChain(st *Store) (*Chain, int, error) {
	entries, err := st.fs.ReadDir(st.dir)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: scanning store: %w", err)
	}
	fallbacks := 0
	var bases, deltas []GenFrame
	for _, e := range entries {
		kind, gen, ok := parseGenName(e.Name())
		if !ok || kind == 'w' {
			continue
		}
		raw, err := st.fs.ReadFile(filepath.Join(st.dir, e.Name()))
		if err != nil {
			fallbacks++
			continue
		}
		frame, err := DecodeGenFrame(raw)
		if err != nil || frame.Gen != gen ||
			(kind == 'b') != (frame.Kind == GenKindBase) {
			fallbacks++
			continue
		}
		if frame.Kind == GenKindBase {
			bases = append(bases, frame)
		} else {
			deltas = append(deltas, frame)
		}
	}
	if len(bases) == 0 {
		return nil, fallbacks, nil
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i].Gen > bases[j].Gen })
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Gen < deltas[j].Gen })
	base := bases[0]
	chain := &Chain{
		BaseGen:  base.Gen,
		Gen:      base.Gen,
		FP:       base.ChainFP,
		Payloads: [][]byte{base.Payload},
	}
	// Follow the fingerprint chain: each step takes the lowest-gen delta
	// above the head that names the head's fingerprint as its parent. The
	// iteration bound makes a (2^-32) fingerprint cycle terminate.
	for steps := 0; steps <= len(deltas); steps++ {
		var next *GenFrame
		for i := range deltas {
			d := &deltas[i]
			if d.Gen > chain.Gen && d.ParentFP == chain.FP {
				next = d
				break
			}
		}
		if next == nil {
			break
		}
		chain.Gen, chain.FP = next.Gen, next.ChainFP
		chain.Payloads = append(chain.Payloads, next.Payload)
		chain.Deltas++
	}
	return chain, fallbacks, nil
}

// refGC is the read-everything GC the store had before it read
// newest-first, with two rules brought in line with LoadChain: a base
// counts as intact only if LoadChain would accept it (its frame's number
// and kind agree with its name), and exactly keep intact bases suffice to
// collect what lies below the oldest of them — corrupt bases, deltas no
// kept base roots and WAL segments a kept base covers — where it used to
// wait for one more intact base. GC is held to the files it leaves.
func refGC(st *Store, keep int) error {
	if keep < 1 {
		keep = 1
	}
	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: scanning store: %w", err)
	}
	var baseGens []uint64
	for _, e := range entries {
		kind, gen, ok := parseGenName(e.Name())
		if !ok || kind != 'b' {
			continue
		}
		raw, err := st.fs.ReadFile(filepath.Join(st.dir, e.Name()))
		if err != nil {
			continue
		}
		if g, err := DecodeGenFrame(raw); err == nil && g.Gen == gen && g.Kind == GenKindBase {
			baseGens = append(baseGens, gen)
		}
	}
	if len(baseGens) < keep {
		return nil
	}
	sort.Slice(baseGens, func(i, j int) bool { return baseGens[i] > baseGens[j] })
	cutoff := baseGens[keep-1]
	for _, e := range entries {
		kind, gen, ok := parseGenName(e.Name())
		if !ok {
			continue
		}
		var dead bool
		switch kind {
		case 'b':
			dead = gen < cutoff
		case 'd':
			dead = gen <= cutoff
		case 'w':
			dead = gen < cutoff
		}
		if dead {
			if err := st.fs.Remove(filepath.Join(st.dir, e.Name())); err != nil {
				return fmt.Errorf("checkpoint: gc: %w", err)
			}
		}
	}
	return nil
}

// memFS is an in-memory directory that counts the files read from it.
type memFS struct {
	files   map[string][]byte
	reads   map[string]int
	entries []os.DirEntry // ReadDir's answer, until the files change
}

type memEntry string

func (e memEntry) Name() string               { return string(e) }
func (memEntry) IsDir() bool                  { return false }
func (memEntry) Type() iofs.FileMode          { return 0 }
func (memEntry) Info() (iofs.FileInfo, error) { return nil, errors.ErrUnsupported }

func newMemFS() *memFS {
	return &memFS{files: map[string][]byte{}, reads: map[string]int{}}
}

func (m *memFS) clone() *memFS {
	return &memFS{files: maps.Clone(m.files), reads: map[string]int{}, entries: m.entries}
}

// put stores a file, or removes it when raw is nil.
func (m *memFS) put(name string, raw []byte) {
	if raw == nil {
		delete(m.files, name)
	} else {
		m.files[name] = raw
	}
	m.entries = nil
}

func (m *memFS) OpenFile(string, int, os.FileMode) (File, error) { return nil, errors.ErrUnsupported }
func (m *memFS) Rename(string, string) error                     { return errors.ErrUnsupported }
func (m *memFS) MkdirAll(string, os.FileMode) error              { return nil }
func (m *memFS) SyncDir(string) error                            { return nil }

func (m *memFS) Remove(name string) error {
	if _, ok := m.files[name]; !ok {
		return os.ErrNotExist
	}
	m.put(name, nil)
	return nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	raw, ok := m.files[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	m.reads[name]++
	return raw, nil
}

func (m *memFS) ReadDir(string) ([]os.DirEntry, error) {
	if m.entries == nil {
		for _, name := range slices.Sorted(maps.Keys(m.files)) {
			m.entries = append(m.entries, memEntry(filepath.Base(name)))
		}
	}
	return m.entries, nil
}

// damage is what happened to one generation file.
type damage int

const (
	intact damage = iota
	flipped
	truncated
	absent
	numDamages
)

// nextDamage advances a damage assignment as a base-4 counter over the
// files, and reports false once it wraps around.
func nextDamage(dmg []damage) bool {
	for i := range dmg {
		if dmg[i]++; dmg[i] < numDamages {
			return true
		}
		dmg[i] = intact
	}
	return false
}

// dirFile is one generation file of an enumerated directory.
type dirFile struct {
	path string
	kind byte
	gen  uint64
	raw  []byte
}

// damaged returns a file's bytes after d: nil when it is absent.
func (f dirFile) damaged(d damage) []byte {
	switch d {
	case flipped:
		raw := bytes.Clone(f.raw)
		raw[len(raw)-1] ^= 1
		return raw
	case truncated:
		return f.raw[:len(f.raw)-1]
	case absent:
		return nil
	}
	return f.raw
}

// shapeFiles builds the files a store in dir holds for a history given as
// one token per file in generation order: "b1" a fresh base, "c3" a base
// compacted at generation 3 (it carries delta 3's chain fingerprint) and
// "d2" a delta. The delta numbered stale names a parent no generation has;
// the deltas after it chain onto the true head, as a process does whose
// write of that delta's parent was lost.
func shapeFiles(dir string, history []string, stale uint64) []dirFile {
	var files []dirFile
	var head uint32
	for _, tok := range history {
		gen, _ := strconv.ParseUint(tok[1:], 10, 64)
		payload := []byte(tok)
		crc := crcOf(payload)
		switch tok[0] {
		case 'b', 'c':
			if tok[0] == 'b' {
				head = crc
			}
			files = append(files, dirFile{filepath.Join(dir, baseName(gen)), 'b', gen,
				EncodeGenFrame(GenKindBase, gen, 0, head, payload)})
		case 'd':
			parent := head
			if gen == stale {
				parent ^= 0xdeadbeef
			}
			fp := ChainFP(parent, crc)
			if gen != stale {
				head = fp
			}
			files = append(files, dirFile{filepath.Join(dir, deltaName(gen)), 'd', gen,
				EncodeGenFrame(GenKindDelta, gen, parent, fp, payload)})
		}
	}
	return files
}

// TestNewestFirstReadersMatchReferences holds LoadChain and GC to the
// read-everything references over every directory of up to 3 bases and 4
// deltas in three histories — fresh, compacted and re-anchored bases, with
// and without a delta naming a stale parent, every file intact, bit-flipped,
// truncated or absent — and for keep 1 and 2. LoadChain must return the
// reference's chain, open no file below its base, and count as fallbacks
// exactly the files it opened and refused; GC must leave the reference's
// files and read only the bases it keeps.
func TestNewestFirstReadersMatchReferences(t *testing.T) {
	const dir = "store"
	for _, h := range []struct {
		history []string
		stale   uint64 // the delta that names a stale parent, in one pass
	}{
		{[]string{"b1", "d2", "d3", "c3", "d4", "d5", "c5"}, 4},
		{[]string{"b1", "d2", "b3", "d4", "d5", "c5", "d6"}, 5},
		{[]string{"b1", "d2", "c2", "d3", "d4", "c4", "d5"}, 2},
	} {
		checkHistory(t, dir, h.history, 0)
		checkHistory(t, dir, h.history, h.stale)
	}
}

// checkHistory runs checkLoadChain and checkGC over every damage of one
// history's files.
func checkHistory(t *testing.T, dir string, history []string, stale uint64) {
	t.Helper()
	files := shapeFiles(dir, history, stale)
	top := files[len(files)-1].gen
	fsys := newMemFS()
	for gen := uint64(1); gen <= top; gen++ {
		fsys.put(filepath.Join(dir, walSegName(gen)), []byte("wal"))
	}
	damageOf := map[string]damage{}
	dmg := make([]damage, len(files))
	cases, chains := 0, 0
	for more := true; more; more = nextDamage(dmg) {
		noStale := false // the directory without a stale delta is skipped
		for i, f := range files {
			damageOf[f.path] = dmg[i]
			fsys.put(f.path, f.damaged(dmg[i]))
			noStale = noStale || f.kind == 'd' && f.gen == stale && dmg[i] == absent
		}
		if noStale {
			continue
		}
		label := func() string {
			return fmt.Sprintf("history %v stale %d damage %v", history, stale, dmg)
		}
		cases++
		if checkLoadChain(t, fsys, dir, damageOf, label) {
			chains++
		}
		if stale == 0 {
			for keep := 1; keep <= 2; keep++ {
				checkGC(t, fsys, dir, keep, label)
			}
		}
	}
	t.Logf("history %v stale %d: %d LoadChain cases, %d of them found a chain", history, stale, cases, chains)
}

// checkLoadChain runs LoadChain and its reference over one directory and
// reports whether they found a chain.
func checkLoadChain(t *testing.T, fsys *memFS, dir string, damageOf map[string]damage, label func() string) bool {
	t.Helper()
	want, _, err := refLoadChain(NewStore(dir, fsys))
	if err != nil {
		t.Fatal(err)
	}
	clear(fsys.reads)
	got, fallbacks, err := NewStore(dir, fsys).LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case (got == nil) != (want == nil):
		t.Fatalf("%s: chain %+v, reference %+v", label(), got, want)
	case got != nil && (got.BaseGen != want.BaseGen || got.Gen != want.Gen || got.FP != want.FP ||
		got.Deltas != want.Deltas || !slices.Equal(chainPayloads(got), chainPayloads(want))):
		t.Fatalf("%s: chain %+v %q, reference %+v %q", label(),
			got, chainPayloads(got), want, chainPayloads(want))
	}
	refused := 0
	for path, n := range fsys.reads {
		name := filepath.Base(path)
		kind, gen, _ := parseGenName(name)
		switch {
		case n > 1:
			t.Fatalf("%s: read %s %d times", label(), name, n)
		case kind == 'w':
			t.Fatalf("%s: read %s", label(), name)
		case got != nil && (gen < got.BaseGen || kind == 'd' && gen == got.BaseGen):
			t.Fatalf("%s: read %s, not above the chain's base %d", label(), name, got.BaseGen)
		case got == nil && kind != 'b':
			t.Fatalf("%s: read %s with no intact base", label(), name)
		}
		if damageOf[path] != intact {
			refused++
		}
	}
	if fallbacks != refused {
		t.Fatalf("%s: %d fallbacks, %d files opened and refused", label(), fallbacks, refused)
	}
	return got != nil
}

// checkGC runs GC and its reference on copies of one directory.
func checkGC(t *testing.T, fsys *memFS, dir string, keep int, label func() string) {
	t.Helper()
	want, got := fsys.clone(), fsys.clone()
	if err := refGC(NewStore(dir, want), keep); err != nil {
		t.Fatal(err)
	}
	if err := NewStore(dir, got).GC(keep); err != nil {
		t.Fatal(err)
	}
	if !maps.EqualFunc(got.files, want.files, bytes.Equal) {
		t.Fatalf("%s keep %d: GC left %v, reference %v", label(), keep,
			slices.Sorted(maps.Keys(got.files)), slices.Sorted(maps.Keys(want.files)))
	}
	// GC reads bases only, newest first, and stops at the oldest it keeps:
	// it reads none that it removes.
	for path := range got.reads {
		if kind, _, _ := parseGenName(filepath.Base(path)); kind != 'b' {
			t.Fatalf("%s keep %d: GC read %s", label(), keep, path)
		}
		if _, kept := got.files[path]; !kept {
			t.Fatalf("%s keep %d: GC read %s and removed it", label(), keep, path)
		}
	}
}
