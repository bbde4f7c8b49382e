// Package checkpoint provides the durable-storage primitives behind the
// streaming service's crash safety: versioned, CRC-guarded snapshot
// generations with atomic rename-commit (store.go), and an append-only
// write-ahead log of framed, CRC-guarded records whose replay stops cleanly
// at a torn tail.
//
// The package is deliberately schema-free: payloads are opaque bytes. The
// streaming service (internal/stream) owns the snapshot schema and the
// recovery protocol — snapshot the service state at a day boundary, log
// every ingested event ahead of applying it, and on restart restore the
// newest intact generation chain and replay the log through the
// deterministic ingest path. The split keeps the on-disk invariants (what
// "committed" means) auditable in one place, independent of what is being
// persisted.
//
// Durability model: generation commits are fsynced before the rename and the
// directory is fsynced after it, so a committed generation survives a machine
// crash. WAL appends are buffered and fsynced at group commits (RequestSync,
// every so many events when the caller configures them), at snapshot
// rotations, and at suspend or completion (Sync, Close). Torn or bit-flipped
// tails are detected by per-record CRCs and truncated at replay, never
// silently parsed.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

const (
	// walMagic guards against feeding the wrong file (or garbage) to the
	// decoder.
	walMagic = "CMWAL001"

	// FormatVersion is the on-disk format version of generation frames and
	// WAL segments. Readers reject other versions rather than guessing.
	FormatVersion = 1

	// maxRecordLen bounds a single WAL record, so a corrupt length field
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

// WAL is an open write-ahead log. Appends are buffered in userspace and
// reach the file at Sync (which also fsyncs), RequestSync (which asks for
// an fsync), Close, or when the buffer fills. Losing a buffered tail in a
// crash is safe by protocol: recovery
// re-reads exactly the events the log is missing from the source, because
// the resume cursor counts only replayed records.
//
// The day clock is the only appender. With StartGroupCommit a background
// syncer turns RequestSync into a batched, asynchronous fsync — group
// commit — so the ingest thread never waits on the disk; its Sync errors
// surface at the next RequestSync/Sync/Close.
type WAL struct {
	f File
	w *bufio.Writer
	// frame is Append's record header. It lives here, not on Append's
	// stack, because bufio.Writer.Write may hand it to the file and so
	// would move a local to the heap on every record.
	frame [8]byte

	// Group-commit syncer state: nil syncReq means synchronous mode.
	syncReq chan struct{}
	syncWG  sync.WaitGroup
	errMu   sync.Mutex
	syncErr error
}

// OpenWALFile opens (creating if needed) a write-ahead log at path through
// fsys for appending — the generation store's numbered WAL segments. A new
// log starts with the magic+version preamble; an existing log is validated
// against it.
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
	preamble := make([]byte, 0, 12)
	preamble = append(preamble, walMagic...)
	preamble = binary.LittleEndian.AppendUint32(preamble, FormatVersion)
	if info.Size() < int64(len(preamble)) {
		// Empty, or a torn preamble from a crash during initialization —
		// either way the log holds no records; start it over.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: initializing wal: %w", err)
		}
		if _, err := f.Write(preamble); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: initializing wal: %w", err)
		}
		// Harden the preamble before any record can follow it: the frame
		// that makes the file parseable must not itself be torn state.
		if err := f.Sync(); err != nil {
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
	return &WAL{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// Append buffers one framed record:
//
//	length[u32] crc32c[u32] payload
func (w *WAL) Append(payload []byte) error {
	if len(payload) > maxRecordLen {
		return fmt.Errorf("checkpoint: wal record of %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(w.frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.frame[4:], crc32.Checksum(payload, castagnoli))
	if _, err := w.w.Write(w.frame[:]); err != nil {
		return fmt.Errorf("checkpoint: appending wal record: %w", err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return fmt.Errorf("checkpoint: appending wal record: %w", err)
	}
	return nil
}

// Sync flushes buffered records to stable storage, surfacing any pending
// error from the background group-commit syncer.
func (w *WAL) Sync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	return w.takeSyncErr()
}

// StartGroupCommit launches the background syncer so RequestSync batches
// fsyncs off the appending thread. Idempotent.
func (w *WAL) StartGroupCommit() {
	if w.syncReq != nil {
		return
	}
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

// RequestSync flushes buffered records to the file and asks the background
// syncer for an fsync without waiting for it — one group commit. Several
// requests arriving while a sync is in flight coalesce into the next one.
// Without StartGroupCommit it degrades to a synchronous Sync. The returned
// error includes any failure from earlier asynchronous syncs.
func (w *WAL) RequestSync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.syncReq == nil {
		return w.f.Sync()
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

// Close flushes buffered records and closes the log file.
func (w *WAL) Close() error {
	w.stopSyncer()
	err := w.w.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = w.takeSyncErr()
	}
	return err
}

// Abandon closes the log file WITHOUT flushing buffered appends, discarding
// up to a buffer's worth of tail records — exactly what a process kill does
// to them. The fault-injection harness exits through this path so simulated
// crashes leave the log no more durable than real ones; recovery is
// indifferent (the resume cursor counts only replayed records, and the
// dropped events are re-read from the source).
func (w *WAL) Abandon() error {
	w.stopSyncer()
	return w.f.Close()
}

// ReplayWALFile invokes fn on every intact record of the write-ahead log at
// path in append order and returns how many records were delivered. A
// missing log replays zero records. A truncated or CRC-failing *tail* ends
// the replay cleanly — that is what a crash mid-append looks like — but a
// corrupt preamble is an ErrCorrupt error, and an error from fn aborts the
// replay.
func ReplayWALFile(fsys FS, path string, fn func(payload []byte) error) (int, error) {
	raw, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("checkpoint: reading wal: %w", err)
	}
	if len(raw) < 12 {
		// Empty or torn preamble — what a crash during initialization
		// leaves behind. No record can precede the preamble, so the log
		// holds nothing to replay.
		return 0, nil
	}
	if string(raw[:8]) != walMagic ||
		binary.LittleEndian.Uint32(raw[8:12]) != FormatVersion {
		return 0, fmt.Errorf("%w: bad wal preamble", ErrCorrupt)
	}
	off, n := 12, 0
	for {
		if len(raw)-off < 8 {
			return n, nil // torn frame header: clean end of log
		}
		length := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		want := binary.LittleEndian.Uint32(raw[off+4 : off+8])
		if length > maxRecordLen || len(raw)-off-8 < length {
			return n, nil // torn payload: clean end of log
		}
		payload := raw[off+8 : off+8+length]
		if crc32.Checksum(payload, castagnoli) != want {
			return n, nil // bit-flipped tail: stop before it
		}
		if err := fn(payload); err != nil {
			return n, err
		}
		n++
		off += 8 + length
	}
}
