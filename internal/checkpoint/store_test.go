package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// EncodeGenFrame frames one snapshot generation in memory: the header
// writeGen writes, then the payload. The store never builds this buffer; it
// is the reference its files are held to.
func EncodeGenFrame(kind byte, gen uint64, parentFP, chainFP uint32, payload []byte) []byte {
	return append(appendGenHeader(nil, kind, gen, parentFP, chainFP, payload), payload...)
}

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
	baseFP := ChainFP(0, payload)

	raw := EncodeGenFrame(GenKindBase, 7, 0, baseFP, payload)
	g, err := DecodeGenFrame(raw)
	if err != nil {
		t.Fatalf("decoding base frame: %v", err)
	}
	if g.Kind != GenKindBase || g.Gen != 7 || g.ParentFP != 0 || !bytes.Equal(g.Payload, payload) {
		t.Fatalf("base frame roundtrip: %+v", g)
	}

	deltaFP := ChainFP(baseFP, payload)
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
	chain, fallbacks, err := NewStore(dir, nil).LoadChain(0)
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
	fp := ChainFP(0, payload)
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
	deltaFP := ChainFP(fp, payload)
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

	chain, fallbacks, err := st.LoadChain(0)
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
	// A bound stops the chain at it, as a compaction folding up to
	// generation 2 while generation 3 is written sees it.
	chain, _, err = st.LoadChain(2)
	if err != nil || chain == nil || chain.Gen != 2 || chain.FP != fp2 || chain.Deltas != 1 {
		t.Fatalf("chain bounded at 2: %+v (%v)", chain, err)
	}

	// A compacted base keeps the head's identity: replacing gens 1–3 with a
	// base at (3, fp3) must leave later deltas chaining on unchanged.
	if err := st.WriteBaseLinked(3, fp3, []byte("compacted3")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteDelta(5, fp3, []byte("delta5")); err != nil {
		t.Fatal(err)
	}
	chain, _, err = st.LoadChain(0)
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
	chain, _, err = st.LoadChain(4)
	if err != nil || chain == nil || chain.BaseGen != 3 || chain.Gen != 3 || chain.Deltas != 0 {
		t.Fatalf("post-compaction chain bounded at 4: %+v (%v)", chain, err)
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

	chain, fallbacks, err := st.LoadChain(0)
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
	// never an error, never corrupt payloads.
	for _, name := range []string{"base-00000001.ckpt", "delta-00000002.ckpt"} {
		if err := os.Truncate(filepath.Join(dir, name), 5); err != nil {
			t.Fatal(err)
		}
	}
	chain, fallbacks, err = st.LoadChain(0)
	if err != nil {
		t.Fatal(err)
	}
	if chain != nil || fallbacks != 3 {
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

	chain, _, err := st.LoadChain(0)
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
	chain, _, err := st.LoadChain(0)
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
	chain, fallbacks, err := st.LoadChain(0)
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
	chain, fallbacks, err := st.LoadChain(0)
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
	chain, _, err = st.LoadChain(0)
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
	baseFP := ChainFP(0, payload)
	f.Add(EncodeGenFrame(GenKindBase, 1, 0, baseFP, payload))
	f.Add(EncodeGenFrame(GenKindDelta, 2, baseFP, ChainFP(baseFP, payload), payload))
	f.Add(EncodeGenFrame(GenKindDelta, 2, baseFP, ChainFP(baseFP, payload), payload)[:20])
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
