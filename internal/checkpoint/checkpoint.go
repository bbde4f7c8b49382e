// Package checkpoint provides the durable-storage primitives behind the
// streaming service's crash safety: versioned, CRC-guarded snapshot
// generations with atomic rename-commit (store.go), and an append-only
// write-ahead log of CRC-guarded frames whose replay stops cleanly at a torn
// tail.
//
// The package is deliberately schema-free: payloads and frame bodies are
// opaque bytes. The streaming service (internal/stream) owns the snapshot
// schema, the entries a frame holds and the recovery protocol — snapshot the
// service state at a day boundary, log every ingested event ahead of
// applying it, and on restart restore the newest intact generation chain and
// replay the log through the deterministic ingest path. The split keeps the
// on-disk invariants (what "committed" means) auditable in one place,
// independent of what is being persisted.
//
// Durability model: generation commits are fsynced before the rename and the
// directory is fsynced after it, so a committed generation survives a machine
// crash. The WAL's caller hands it one frame per group commit; Append writes
// the frame to the file in one write, and it is fsynced at group commits
// (RequestSync), at snapshot rotations, and at suspend or completion (Sync,
// Close). Torn or bit-flipped tails are detected by per-frame CRCs and
// truncated at replay, never silently parsed.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	// walMagic guards against feeding the wrong file (or garbage) to the
	// decoder.
	walMagic = "CMWAL001"

	// FormatVersion is the on-disk format version of generation frames.
	// Readers reject other versions rather than guessing.
	FormatVersion = 1

	// walVersion is the format of a WAL segment: one frame per group
	// commit. Version 1, one framed record per event, is refused.
	walVersion = 2

	// WALFrameHeader is a version-2 frame's header: length u32, CRC-32C
	// u32, first sequence number u64.
	WALFrameHeader = 4 + 4 + 8

	// maxRecordLen bounds a single WAL frame, so a corrupt length field
	// cannot drive a multi-gigabyte allocation before the CRC check.
	maxRecordLen = 1 << 30
)

// ErrCorrupt is wrapped by errors reporting a file that fails its magic,
// version, length, or CRC checks. A torn WAL *tail* is not corruption — it
// is the expected shape of a crash — and is reported via Replay's clean
// truncation instead.
var ErrCorrupt = errors.New("checkpoint: corrupt data")

// castagnoli is the CRC-32C table; Castagnoli has better error-detection
// properties than IEEE and hardware support on common CPUs.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WAL is an open write-ahead log segment. The caller buffers what it logs
// and hands it over one frame at a time — a group commit, or a buffer's
// worth — and each frame reaches the file in one write. A frame the caller
// still holds is lost in a crash, which is safe by protocol: recovery
// re-reads exactly the events the log is missing from the source, because
// the resume cursor counts only replayed entries.
//
// The day clock is the only appender. RequestSync hands the fsync to a
// background syncer, started by the first request, so the ingest thread
// never waits on the disk at a group commit; the syncer's errors surface at
// the next RequestSync/Sync/Close.
type WAL struct {
	f File
	// frame is Append's buffer: the header, then a copy of the entries, so
	// the frame is one write.
	frame []byte

	// Group-commit syncer state: nil syncReq until the first RequestSync.
	syncReq chan struct{}
	syncWG  sync.WaitGroup
	errMu   sync.Mutex
	syncErr error
}

// walPreamble is the first bytes of a WAL segment of the given version.
func walPreamble(version uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte(walMagic), version)
}

// OpenWALFile opens (creating if needed) a write-ahead log at path through
// fsys for appending — the generation store's numbered WAL segments. A new
// log starts with the magic+version preamble, synced, and then its
// directory is synced, so the segment's name survives a machine crash as
// its first synced frame does; an existing log is validated against it.
func OpenWALFile(fsys FS, path string) (*WAL, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: opening wal: %w", err)
	}
	preamble := walPreamble(walVersion)
	if info.Size() < int64(len(preamble)) {
		// Empty, or a torn preamble from a crash during initialization —
		// either way the log holds no frames; start it over.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: initializing wal: %w", err)
		}
		if _, err := f.Write(preamble); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: initializing wal: %w", err)
		}
		// Harden the preamble before any frame can follow it: the bytes
		// that make the file parseable must not themselves be torn state.
		// Without the directory sync, a frame's fsync would complete while
		// the file it is in could still vanish.
		err := f.Sync()
		if err == nil {
			err = fsys.SyncDir(filepath.Dir(path))
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: initializing wal: %w", err)
		}
	} else {
		have := make([]byte, len(preamble))
		if _, err := io.ReadFull(f, have); err != nil || string(have) != string(preamble) {
			f.Close()
			return nil, fmt.Errorf("%w: bad wal preamble", ErrCorrupt)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: seeking wal: %w", err)
	}
	return &WAL{f: f}, nil
}

// Append writes one frame to the file, in one write:
//
//	length[u32] crc32c[u32] firstSeq[u64] entries
//
// length counts the entries' bytes; the CRC covers firstSeq and the
// entries. The WAL keeps no reference to entries.
func (w *WAL) Append(firstSeq uint64, entries []byte) error {
	if len(entries) > maxRecordLen {
		return fmt.Errorf("checkpoint: wal frame of %d bytes exceeds limit", len(entries))
	}
	w.frame = binary.LittleEndian.AppendUint32(w.frame[:0], uint32(len(entries)))
	w.frame = append(w.frame, 0, 0, 0, 0)
	w.frame = binary.LittleEndian.AppendUint64(w.frame, firstSeq)
	w.frame = append(w.frame, entries...)
	binary.LittleEndian.PutUint32(w.frame[4:], crc32.Checksum(w.frame[8:], castagnoli))
	if _, err := w.f.Write(w.frame); err != nil {
		return fmt.Errorf("checkpoint: appending wal frame: %w", err)
	}
	return nil
}

// Sync makes the appended frames durable, surfacing any pending error from
// the background group-commit syncer.
func (w *WAL) Sync() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	return w.takeSyncErr()
}

// RequestSync asks the background syncer, starting it on the first call,
// for an fsync of the frames appended so far without waiting for it — one
// group commit. Several requests arriving while a sync is in flight
// coalesce into the next one. The returned error includes any failure from
// earlier asynchronous syncs.
func (w *WAL) RequestSync() error {
	if w.syncReq == nil {
		w.syncReq = make(chan struct{}, 1)
		w.syncWG.Add(1)
		go func() {
			defer w.syncWG.Done()
			for range w.syncReq {
				if err := w.f.Sync(); err != nil {
					w.errMu.Lock()
					if w.syncErr == nil {
						w.syncErr = err
					}
					w.errMu.Unlock()
				}
			}
		}()
	}
	select {
	case w.syncReq <- struct{}{}:
	default: // a sync is already pending; it will cover these bytes
	}
	return w.takeSyncErr()
}

// stopSyncer drains and stops the group-commit goroutine, if running.
func (w *WAL) stopSyncer() {
	if w.syncReq == nil {
		return
	}
	close(w.syncReq)
	w.syncWG.Wait()
	w.syncReq = nil
}

func (w *WAL) takeSyncErr() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	err := w.syncErr
	w.syncErr = nil
	return err
}

// Close stops the syncer and closes the log file.
func (w *WAL) Close() error {
	w.stopSyncer()
	err := w.f.Close()
	if err == nil {
		err = w.takeSyncErr()
	}
	return err
}

// Abandon closes the log file without waiting for any syncer error — the
// fault-injection harness's exit, where the frames the caller still holds
// are dropped exactly as a process kill drops them; recovery is
// indifferent (the resume cursor counts only replayed entries, and the
// dropped events are re-read from the source).
func (w *WAL) Abandon() error {
	w.stopSyncer()
	return w.f.Close()
}

// WALFrame is one intact frame of a replayed WAL segment: one group
// commit's entries, and the sequence number of the first of them.
type WALFrame struct {
	FirstSeq uint64
	Body     []byte
}

// ReplayWALFile invokes fn on every intact frame of the write-ahead log at
// path in append order and returns how many it delivered. A missing log
// replays nothing. A truncated or CRC-failing frame ends the replay cleanly
// — that is what a crash mid-append looks like — but a corrupt preamble,
// which includes a segment of another version, is an ErrCorrupt error, and
// an error from fn aborts the replay.
func ReplayWALFile(fsys FS, path string, fn func(WALFrame) error) (int, error) {
	raw, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("checkpoint: reading wal: %w", err)
	}
	if len(raw) < 12 {
		// Empty or torn preamble — what a crash during initialization
		// leaves behind. No frame can precede the preamble, so the log
		// holds nothing to replay.
		return 0, nil
	}
	if string(raw[:12]) != string(walPreamble(walVersion)) {
		return 0, fmt.Errorf("%w: bad wal preamble", ErrCorrupt)
	}
	const header = WALFrameHeader
	off, n := 12, 0
	for {
		if len(raw)-off < header {
			return n, nil // torn frame header: clean end of log
		}
		length := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		want := binary.LittleEndian.Uint32(raw[off+4 : off+8])
		if length > maxRecordLen || len(raw)-off-header < length {
			return n, nil // torn body: clean end of log
		}
		// The CRC covers the frame's sequence number and entries.
		if crc32.Checksum(raw[off+8:off+header+length], castagnoli) != want {
			return n, nil // bit-flipped tail: stop before it
		}
		fr := WALFrame{FirstSeq: binary.LittleEndian.Uint64(raw[off+8:]), Body: raw[off+header : off+header+length]}
		if err := fn(fr); err != nil {
			return n, err
		}
		n++
		off += header + length
	}
}
