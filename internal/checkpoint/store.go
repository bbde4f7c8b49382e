package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Generation-store layout. A checkpoint directory holds numbered snapshot
// generations and WAL segments instead of one snapshot file and one log:
//
//	base-00000001.ckpt    full snapshot, generation 1
//	wal-00000001.log      events ingested after generation 1 was captured
//	delta-00000002.ckpt   dirty state since generation 1
//	wal-00000002.log      events after generation 2, ...
//
// Every snapshot generation is one framed file:
//
//	magic[8] version[u32] kind[u8] gen[u64] parentFP[u32] chainFP[u32]
//	length[u64] crc32c[u32] payload
//
// (little-endian; the CRC covers the payload only). A delta names its
// parent by fingerprint: parentFP is the parent generation's chainFP, and
// the delta's own chainFP is derived from (parentFP, payload CRC), so a
// chain's head fingerprint commits to every link below it. A base written
// fresh has parentFP 0 and chainFP = its payload CRC; a base written by
// compaction copies the head generation's number and chainFP, so deltas
// captured later chain onto either representation interchangeably.
//
// Recovery (LoadChain) trusts nothing: files that fail their frame checks
// are skipped and counted as fallbacks, the newest intact base wins, and
// the chain is followed strictly by fingerprint. The worst case — every
// generation corrupt — degrades to an empty chain, which the streaming
// recovery protocol handles by replaying the WAL segments from scratch and
// re-reading anything missing from the source. Corrupt state is never
// served.
const (
	genMagic = "CMGEN001"

	// GenKindBase and GenKindDelta are the generation-frame kinds.
	GenKindBase  = 1
	GenKindDelta = 2

	genHeaderLen = 8 + 4 + 1 + 8 + 4 + 4 + 8 + 4
)

// GenFrame is one decoded snapshot-generation frame.
type GenFrame struct {
	Kind     byte
	Gen      uint64
	ParentFP uint32
	ChainFP  uint32
	Payload  []byte
}

// ChainFP derives a delta's chain fingerprint from its parent's and its own
// payload CRC, committing the head fingerprint to the whole chain below it.
// The payload may come in parts, which it concatenates.
func ChainFP(parentFP uint32, payload ...[]byte) uint32 {
	var link [8]byte
	binary.LittleEndian.PutUint32(link[:4], parentFP)
	binary.LittleEndian.PutUint32(link[4:], payloadCRC(payload))
	return crc32.Checksum(link[:], castagnoli)
}

// payloadCRC is the CRC-32C of the concatenated payload parts.
func payloadCRC(payload [][]byte) (crc uint32) {
	for _, p := range payload {
		crc = crc32.Update(crc, castagnoli, p)
	}
	return crc
}

// appendGenHeader appends the genHeaderLen-byte frame header of one
// snapshot generation; the payload parts follow it unchanged.
func appendGenHeader(buf []byte, kind byte, gen uint64, parentFP, chainFP uint32, payload ...[]byte) []byte {
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	buf = append(buf, genMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint32(buf, parentFP)
	buf = binary.LittleEndian.AppendUint32(buf, chainFP)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	return binary.LittleEndian.AppendUint32(buf, payloadCRC(payload))
}

// DecodeGenFrame validates and decodes one generation frame. Every failure
// wraps ErrCorrupt; arbitrary input never panics (the fuzz target's
// contract). For deltas the chain fingerprint is recomputed from the stored
// parent fingerprint and payload, so a frame whose linkage was tampered
// with is refused even when its payload CRC still holds.
func DecodeGenFrame(raw []byte) (GenFrame, error) {
	var g GenFrame
	if len(raw) < genHeaderLen {
		return g, fmt.Errorf("%w: generation frame truncated at %d bytes", ErrCorrupt, len(raw))
	}
	if string(raw[:8]) != genMagic {
		return g, fmt.Errorf("%w: bad generation magic %q", ErrCorrupt, raw[:8])
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != FormatVersion {
		return g, fmt.Errorf("%w: unsupported generation version %d", ErrCorrupt, v)
	}
	g.Kind = raw[12]
	if g.Kind != GenKindBase && g.Kind != GenKindDelta {
		return g, fmt.Errorf("%w: unknown generation kind %d", ErrCorrupt, g.Kind)
	}
	g.Gen = binary.LittleEndian.Uint64(raw[13:21])
	g.ParentFP = binary.LittleEndian.Uint32(raw[21:25])
	g.ChainFP = binary.LittleEndian.Uint32(raw[25:29])
	n := binary.LittleEndian.Uint64(raw[29:37])
	if n > maxRecordLen || n != uint64(len(raw)-genHeaderLen) {
		return g, fmt.Errorf("%w: generation length %d, frame says %d",
			ErrCorrupt, len(raw)-genHeaderLen, n)
	}
	want := binary.LittleEndian.Uint32(raw[37:41])
	g.Payload = raw[genHeaderLen:]
	if got := crc32.Checksum(g.Payload, castagnoli); got != want {
		return g, fmt.Errorf("%w: generation crc %08x, want %08x", ErrCorrupt, got, want)
	}
	if g.Kind == GenKindDelta {
		if want := ChainFP(g.ParentFP, g.Payload); g.ChainFP != want {
			return g, fmt.Errorf("%w: delta chain fingerprint %08x, want %08x",
				ErrCorrupt, g.ChainFP, want)
		}
	} else if g.ParentFP != 0 {
		// Bases never have a parent. Their chain fingerprint is an external
		// linkage claim (a compacted base carries its head delta's), so a
		// flipped bit there is undetectable here — but merely detaches later
		// deltas from the chain; the CRC-checked payload is still intact.
		return g, fmt.Errorf("%w: base with parent fingerprint %08x", ErrCorrupt, g.ParentFP)
	}
	return g, nil
}

// Store manages a checkpoint directory's snapshot generations and WAL
// segments through an FS (nil = the real filesystem), which is where the
// fault injector plugs in.
type Store struct {
	dir string
	fs  FS
}

// NewStore returns a generation store rooted at dir.
func NewStore(dir string, fsys FS) *Store {
	if fsys == nil {
		fsys = OsFS{}
	}
	return &Store{dir: dir, fs: fsys}
}

// FS exposes the store's filesystem, for opening WAL segments through the
// same (possibly fault-injected) layer.
func (st *Store) FS() FS { return st.fs }

func baseName(gen uint64) string   { return fmt.Sprintf("base-%08d.ckpt", gen) }
func deltaName(gen uint64) string  { return fmt.Sprintf("delta-%08d.ckpt", gen) }
func walSegName(gen uint64) string { return fmt.Sprintf("wal-%08d.log", gen) }

// parseGenName classifies a directory entry: kind is 'b' (base), 'd'
// (delta), or 'w' (WAL segment).
func parseGenName(name string) (kind byte, gen uint64, ok bool) {
	var rest string
	var suffix string
	switch {
	case strings.HasPrefix(name, "base-"):
		kind, rest, suffix = 'b', name[len("base-"):], ".ckpt"
	case strings.HasPrefix(name, "delta-"):
		kind, rest, suffix = 'd', name[len("delta-"):], ".ckpt"
	case strings.HasPrefix(name, "wal-"):
		kind, rest, suffix = 'w', name[len("wal-"):], ".log"
	default:
		return 0, 0, false
	}
	num, found := strings.CutSuffix(rest, suffix)
	if !found || num == "" {
		return 0, 0, false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return kind, n, true
}

// WALSegmentPath returns the path of the numbered WAL segment.
func (st *Store) WALSegmentPath(gen uint64) string {
	return filepath.Join(st.dir, walSegName(gen))
}

// OpenWALSegment opens (creating if needed) the numbered WAL segment.
func (st *Store) OpenWALSegment(gen uint64) (*WAL, error) {
	if err := st.fs.MkdirAll(st.dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", st.dir, err)
	}
	return OpenWALFile(st.fs, st.WALSegmentPath(gen))
}

// Reset removes every generation file, WAL segment and staging file under
// the store — a fresh run owns its directory outright.
func (st *Store) Reset() error {
	if err := st.fs.MkdirAll(st.dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: creating %s: %w", st.dir, err)
	}
	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: resetting store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		_, _, isGen := parseGenName(name)
		if isGen || strings.HasSuffix(name, ".tmp") {
			if err := st.fs.Remove(filepath.Join(st.dir, name)); err != nil {
				return fmt.Errorf("checkpoint: resetting store: %w", err)
			}
		}
	}
	return nil
}

// MaxGen scans the directory for the highest generation number in use by
// any file — intact or not, since even a corrupt file's number must never
// be reused. Zero means a fresh directory.
func (st *Store) MaxGen() (uint64, error) {
	entries, err := st.fs.ReadDir(st.dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("checkpoint: scanning store: %w", err)
	}
	var max uint64
	for _, e := range entries {
		if _, gen, ok := parseGenName(e.Name()); ok && gen > max {
			max = gen
		}
	}
	return max, nil
}

// WriteBase commits a fresh full snapshot as generation gen and returns its
// chain fingerprint (the payload CRC).
func (st *Store) WriteBase(gen uint64, payload []byte) (uint32, error) {
	fp := crc32.Checksum(payload, castagnoli)
	return fp, st.writeGen(GenKindBase, baseName(gen), gen, 0, fp, payload)
}

// WriteBaseLinked commits a compacted base: full state equal to folding the
// chain whose head is (gen, chainFP), keeping that head's identity so
// deltas captured after the compaction chain onto either representation.
func (st *Store) WriteBaseLinked(gen uint64, chainFP uint32, payload []byte) error {
	return st.writeGen(GenKindBase, baseName(gen), gen, 0, chainFP, payload)
}

// WriteDelta commits a delta generation chained to the parent fingerprint
// and returns the delta's own chain fingerprint. The payload is the
// concatenation of its parts, which are written as they are.
func (st *Store) WriteDelta(gen uint64, parentFP uint32, payload ...[]byte) (uint32, error) {
	fp := ChainFP(parentFP, payload...)
	return fp, st.writeGen(GenKindDelta, deltaName(gen), gen, parentFP, fp, payload...)
}

// writeGen stages, fsyncs, and rename-commits one generation frame through
// the store's FS, so a crash at any instant leaves either no file under the
// committed name or the whole frame — never a torn mix. The header and the
// payload parts are written one after the other; the payload is never
// copied.
func (st *Store) writeGen(kind byte, name string, gen uint64, parentFP, chainFP uint32, payload ...[]byte) error {
	if err := st.fs.MkdirAll(st.dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: creating %s: %w", st.dir, err)
	}
	var header [genHeaderLen]byte
	appendGenHeader(header[:0], kind, gen, parentFP, chainFP, payload...)
	tmp := filepath.Join(st.dir, name+".tmp")
	// O_RDWR, not O_WRONLY: the fault injector's bit-flip reads the byte it
	// flips, and staged generations must be corruptible like any real file.
	f, err := st.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: staging generation: %w", err)
	}
	_, err = f.Write(header[:])
	for _, p := range payload {
		if err == nil {
			_, err = f.Write(p)
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		st.fs.Remove(tmp)
		return fmt.Errorf("checkpoint: writing generation %d: %w", gen, err)
	}
	if err := st.fs.Rename(tmp, filepath.Join(st.dir, name)); err != nil {
		st.fs.Remove(tmp)
		return fmt.Errorf("checkpoint: committing generation %d: %w", gen, err)
	}
	return st.fs.SyncDir(st.dir)
}

// Chain is the newest intact base plus the delta chain hanging off it, in
// fold order.
type Chain struct {
	// BaseGen and Gen bracket the chain: Gen/FP identify the head, which
	// new deltas chain onto after a resume.
	BaseGen uint64
	Gen     uint64
	FP      uint32
	// Payloads holds the base payload followed by each delta payload in
	// chain order.
	Payloads [][]byte
	// Deltas is len(Payloads)-1, for telemetry.
	Deltas int
	// Fallbacks counts generation files that existed but were unusable —
	// unreadable, truncated, mislabeled, or CRC-failing — and were skipped
	// on the way to an intact chain.
	Fallbacks int
}

// LoadChain picks the newest intact base and follows delta fingerprints
// upward, over the generations at or below maxGen (0 means every
// generation): a compaction folds the chain up to the delta it was decided
// at, and generations written meanwhile are neither read nor joined. A nil
// chain (with nil error) means no usable generation exists — either a fresh
// directory or every generation corrupt; the fallback count distinguishes
// the two. Corruption is never fatal here: recovery degrades to WAL replay
// plus source re-read.
func (st *Store) LoadChain(maxGen uint64) (*Chain, int, error) {
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
		if !ok || kind == 'w' || maxGen != 0 && gen > maxGen {
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
		BaseGen:   base.Gen,
		Gen:       base.Gen,
		FP:        base.ChainFP,
		Payloads:  [][]byte{base.Payload},
		Fallbacks: fallbacks,
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

// ReplayWALSegments replays every retained WAL segment in generation order.
// fn sees records across segment boundaries as one logical log; an error
// from fn aborts the replay (the streaming recovery protocol uses a
// sentinel error to stop cleanly at a sequence gap).
func (st *Store) ReplayWALSegments(fn func(payload []byte) error) (int, error) {
	entries, err := st.fs.ReadDir(st.dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("checkpoint: scanning store: %w", err)
	}
	var gens []uint64
	for _, e := range entries {
		if kind, gen, ok := parseGenName(e.Name()); ok && kind == 'w' {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	total := 0
	for _, gen := range gens {
		n, err := ReplayWALFile(st.fs, st.WALSegmentPath(gen), fn)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// GC keeps the newest keep bases and removes everything they supersede:
// older bases, deltas at or below the oldest kept base's generation, and
// WAL segments below it (a segment numbered g holds only records appended
// after generation g was captured, which that base's state subsumes).
// Corrupt bases don't count toward keep — they are not recovery points.
func (st *Store) GC(keep int) error {
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
		if _, err := DecodeGenFrame(raw); err == nil {
			baseGens = append(baseGens, gen)
		}
	}
	if len(baseGens) <= keep {
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
