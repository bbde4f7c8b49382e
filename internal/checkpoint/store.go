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
// Every reader lists the directory once and opens only what it needs.
// Recovery (LoadChain) trusts nothing: it tries bases newest-first, counting
// those that fail their frame checks as fallbacks, and follows the deltas
// above the first intact one strictly by fingerprint. Replay starts at the
// chain head's WAL segment. The worst case — every base corrupt — degrades
// to an empty chain: the streaming recovery protocol replays every segment
// and re-reads anything missing from the source. Corrupt state is never
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
func ChainFP(parentFP, payloadCRC uint32) uint32 {
	var link [8]byte
	binary.LittleEndian.PutUint32(link[:4], parentFP)
	binary.LittleEndian.PutUint32(link[4:], payloadCRC)
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
// snapshot generation whose n payload bytes have CRC crc; the payload
// follows it unchanged.
func appendGenHeader(buf []byte, kind byte, gen uint64, parentFP, chainFP, crc uint32, n int) []byte {
	buf = append(buf, genMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint32(buf, parentFP)
	buf = binary.LittleEndian.AppendUint32(buf, chainFP)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	return binary.LittleEndian.AppendUint32(buf, crc)
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
	crc := crc32.Checksum(g.Payload, castagnoli)
	if crc != want {
		return g, fmt.Errorf("%w: generation crc %08x, want %08x", ErrCorrupt, crc, want)
	}
	if g.Kind == GenKindDelta {
		if want := ChainFP(g.ParentFP, crc); g.ChainFP != want {
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

// genKinds maps a file name's prefix and suffix to its kind: 'b' (base),
// 'd' (delta) or 'w' (WAL segment).
var genKinds = map[string]byte{"base.ckpt": 'b', "delta.ckpt": 'd', "wal.log": 'w'}

// parseGenName classifies a directory entry named <prefix>-<gen>.<suffix>.
func parseGenName(name string) (kind byte, gen uint64, ok bool) {
	prefix, rest, _ := strings.Cut(name, "-")
	num, suffix, _ := strings.Cut(rest, ".")
	kind = genKinds[prefix+"."+suffix]
	gen, err := strconv.ParseUint(num, 10, 64)
	return kind, gen, kind != 0 && err == nil
}

// storeFile is one file of the store: a base ('b'), delta ('d') or WAL
// segment ('w') numbered gen, or a staging file ('t') that a write of
// generation gen left behind.
type storeFile struct {
	name string
	kind byte
	gen  uint64
}

// list returns the store's files in generation order; a missing directory
// holds none. It is the one place the directory is read: each caller then
// opens only the files it needs.
func (st *Store) list() ([]storeFile, error) {
	entries, err := st.fs.ReadDir(st.dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scanning store: %w", err)
	}
	var files []storeFile
	for _, e := range entries {
		committed, staged := strings.CutSuffix(e.Name(), ".tmp")
		kind, gen, ok := parseGenName(committed)
		if !ok {
			continue
		}
		if staged {
			kind = 't'
		}
		files = append(files, storeFile{name: e.Name(), kind: kind, gen: gen})
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].gen < files[j].gen })
	return files, nil
}

// remove deletes the listed files that dead selects.
func (st *Store) remove(files []storeFile, dead func(storeFile) bool) error {
	for _, f := range files {
		if dead(f) {
			if err := st.fs.Remove(filepath.Join(st.dir, f.name)); err != nil {
				return fmt.Errorf("checkpoint: removing %s: %w", f.name, err)
			}
		}
	}
	return nil
}

// readGen reads one generation file and decodes its frame. It refuses a
// file that cannot be read, fails its frame checks, or holds a frame whose
// number or kind disagrees with its name.
func (st *Store) readGen(f storeFile) (GenFrame, bool) {
	raw, err := st.fs.ReadFile(filepath.Join(st.dir, f.name))
	if err != nil {
		return GenFrame{}, false
	}
	g, err := DecodeGenFrame(raw)
	return g, err == nil && g.Gen == f.gen && (f.kind == 'b') == (g.Kind == GenKindBase)
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
	files, err := st.list()
	if err != nil {
		return err
	}
	return st.remove(files, func(storeFile) bool { return true })
}

// RemoveStaging removes the staging files that writes killed mid-way left
// behind. Only the directory's writer may call it, before it writes: a
// staging file that a live write is filling looks the same.
func (st *Store) RemoveStaging() error {
	files, err := st.list()
	if err != nil {
		return err
	}
	return st.remove(files, func(f storeFile) bool { return f.kind == 't' })
}

// MaxGen returns the highest generation number in use by any committed
// file — intact or not, since even a corrupt file's number must never be
// reused. Zero means a fresh directory.
func (st *Store) MaxGen() (uint64, error) {
	files, err := st.list()
	var max uint64
	for _, f := range files {
		if f.kind != 't' {
			max = f.gen
		}
	}
	return max, err
}

// WriteBase commits a fresh full snapshot as generation gen and returns its
// chain fingerprint (the payload CRC).
func (st *Store) WriteBase(gen uint64, payload []byte) (uint32, error) {
	crc := crc32.Checksum(payload, castagnoli)
	return crc, st.writeGen(GenKindBase, baseName(gen), gen, 0, crc, crc, payload)
}

// WriteBaseLinked commits a compacted base: full state equal to folding the
// chain whose head is (gen, chainFP), keeping that head's identity so
// deltas captured after the compaction chain onto either representation.
func (st *Store) WriteBaseLinked(gen uint64, chainFP uint32, payload []byte) error {
	return st.writeGen(GenKindBase, baseName(gen), gen, 0, chainFP, crc32.Checksum(payload, castagnoli), payload)
}

// WriteDelta commits a delta generation chained to the parent fingerprint
// and returns the delta's own chain fingerprint. The payload is the
// concatenation of its parts, which are written as they are.
func (st *Store) WriteDelta(gen uint64, parentFP uint32, payload ...[]byte) (uint32, error) {
	crc := payloadCRC(payload)
	fp := ChainFP(parentFP, crc)
	return fp, st.writeGen(GenKindDelta, deltaName(gen), gen, parentFP, fp, crc, payload...)
}

// writeGen stages, fsyncs, and rename-commits one generation frame, whose
// payload parts have CRC crc, through the store's FS, so a crash at any
// instant leaves either no file under the committed name or the whole frame
// — never a torn mix. The header and the payload parts are written one
// after the other; the payload is never copied.
func (st *Store) writeGen(kind byte, name string, gen uint64, parentFP, chainFP, crc uint32, payload ...[]byte) error {
	if err := st.fs.MkdirAll(st.dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: creating %s: %w", st.dir, err)
	}
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	var header [genHeaderLen]byte
	appendGenHeader(header[:0], kind, gen, parentFP, chainFP, crc, n)
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
}

// LoadChain loads the chain recovery restores from the generations at or
// below maxGen (0 means every generation): a compaction folds the chain up
// to the delta it was decided at, and generations written meanwhile are
// neither read nor joined. It tries bases newest-first and roots the chain
// at the first intact one, then reads the deltas above it in generation
// order, extending the chain by each that names the head's fingerprint as
// its parent. It opens no file below that base. The second result counts
// the files it opened and refused — unreadable, truncated, mislabeled or
// CRC-failing. A nil chain (with nil error) means no intact base exists:
// either a fresh directory or every base corrupt, which that count tells
// apart. Corruption is never fatal here: recovery degrades to WAL replay
// plus source re-read.
func (st *Store) LoadChain(maxGen uint64) (*Chain, int, error) {
	files, err := st.list()
	if err != nil {
		return nil, 0, err
	}
	if maxGen != 0 {
		files = files[:sort.Search(len(files), func(i int) bool { return files[i].gen > maxGen })]
	}
	fallbacks := 0
	for i := len(files) - 1; i >= 0; i-- {
		if files[i].kind != 'b' {
			continue
		}
		base, ok := st.readGen(files[i])
		if !ok {
			fallbacks++
			continue
		}
		chain := &Chain{BaseGen: base.Gen, Gen: base.Gen, FP: base.ChainFP, Payloads: [][]byte{base.Payload}}
		for _, f := range files[i+1:] {
			if f.kind != 'd' || f.gen == base.Gen {
				continue
			}
			d, ok := st.readGen(f)
			if !ok {
				fallbacks++
			} else if d.ParentFP == chain.FP { // else a stale parent: passed over
				chain.Gen, chain.FP = d.Gen, d.ChainFP
				chain.Payloads = append(chain.Payloads, d.Payload)
			}
		}
		chain.Deltas = len(chain.Payloads) - 1
		return chain, fallbacks, nil
	}
	return nil, fallbacks, nil
}

// ReplayWALSegments replays the WAL segments numbered from or higher in
// generation order, and opens none below. fn sees each segment's frames,
// with the segment's generation, as one logical log; an error from fn
// aborts the replay (the streaming recovery protocol uses a sentinel error
// to stop cleanly at a sequence gap).
func (st *Store) ReplayWALSegments(from uint64, fn func(gen uint64, fr WALFrame) error) (int, error) {
	files, err := st.list()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, f := range files {
		if f.kind != 'w' || f.gen < from {
			continue
		}
		n, err := ReplayWALFile(st.fs, filepath.Join(st.dir, f.name), func(fr WALFrame) error { return fn(f.gen, fr) })
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// GC keeps the newest keep intact bases and removes everything they
// supersede: older bases, deltas at or below the oldest kept base's
// generation, and WAL segments below it (a segment numbered g holds only
// records appended after generation g was captured, which that base's state
// subsumes). It reads bases newest-first until it has found keep intact
// ones — a corrupt base is no recovery point and does not count — and
// removes what they supersede without reading it. With fewer than keep
// intact bases it removes nothing.
func (st *Store) GC(keep int) error {
	files, err := st.list()
	if err != nil {
		return err
	}
	for i := len(files) - 1; i >= 0; i-- {
		if files[i].kind != 'b' {
			continue
		}
		if _, ok := st.readGen(files[i]); !ok {
			continue
		}
		if keep--; keep > 0 {
			continue
		}
		cutoff := files[i].gen
		return st.remove(files, func(f storeFile) bool {
			return f.kind != 't' && f.gen < cutoff || f.kind == 'd' && f.gen == cutoff
		})
	}
	return nil
}
