package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// walPath places a lone WAL file in a fresh directory.
func walPath(t *testing.T) string {
	return filepath.Join(t.TempDir(), "wal-00000001.log")
}

func replayCount(t *testing.T, path string) (int, error) {
	t.Helper()
	return ReplayWALFile(OsFS{}, path, func(WALFrame) error { return nil })
}

// replayAll returns the frames of the log at path, bodies copied.
func replayAll(t *testing.T, path string) ([]WALFrame, error) {
	t.Helper()
	var got []WALFrame
	_, err := ReplayWALFile(OsFS{}, path, func(fr WALFrame) error {
		fr.Body = bytes.Clone(fr.Body)
		got = append(got, fr)
		return nil
	})
	return got, err
}

func TestWALAppendReplay(t *testing.T) {
	path := walPath(t)
	w, err := OpenWALFile(OsFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	var want []WALFrame
	for i := 0; i < 10; i++ {
		fr := WALFrame{Version: walVersion, FirstSeq: uint64(3 * i), Body: []byte(fmt.Sprintf("entries-%d", i))}
		want = append(want, fr)
		if err := w.Append(fr.FirstSeq, fr.Body); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := replayAll(t, path)
	if err != nil || len(got) != len(want) {
		t.Fatalf("replay: n=%d err=%v", len(got), err)
	}
	for i := range want {
		if got[i].Version != want[i].Version || got[i].FirstSeq != want[i].FirstSeq || !bytes.Equal(got[i].Body, want[i].Body) {
			t.Fatalf("frame %d: %+v != %+v", i, got[i], want[i])
		}
	}

	// Reopening appends after the existing frames.
	w, err = OpenWALFile(OsFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(30, []byte("late")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	n, _ := replayCount(t, path)
	if n != 11 {
		t.Fatalf("after reopen: %d frames", n)
	}
}

// TestWALReplaysVersion1Records pins the read path of the segments written
// before group-commit frames: one length- and CRC-framed record per event,
// delivered as version-1 frames, torn tail dropped. Such a segment is never
// appended to.
func TestWALReplaysVersion1Records(t *testing.T) {
	path := walPath(t)
	raw := walPreamble(walVersionRecords)
	recs := [][]byte{[]byte("first"), []byte("second"), {}}
	for _, rec := range recs {
		raw = binary.LittleEndian.AppendUint32(raw, uint32(len(rec)))
		raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(rec, castagnoli))
		raw = append(raw, rec...)
	}
	torn := append(bytes.Clone(raw), 9, 0, 0, 0, 1, 2, 3, 4, 'x')
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := replayAll(t, path)
	if err != nil || len(got) != len(recs) {
		t.Fatalf("replay: n=%d err=%v", len(got), err)
	}
	for i, rec := range recs {
		if got[i].Version != walVersionRecords || got[i].FirstSeq != 0 || !bytes.Equal(got[i].Body, rec) {
			t.Fatalf("record %d: %+v, want body %q", i, got[i], rec)
		}
	}
	if _, err := OpenWALFile(OsFS{}, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("opening a version-1 segment for append: %v", err)
	}
}

// TestWALAppendAllocatesNothing pins Append's steady state at zero heap
// allocations per frame: the frame buffer is reused, and the write into the
// file allocates nothing either.
func TestWALAppendAllocatesNothing(t *testing.T) {
	w, err := OpenWALFile(OsFS{}, walPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	entries := bytes.Repeat([]byte{0xa5}, 100)
	seq := uint64(0)
	if n := testing.AllocsPerRun(2000, func() {
		if err := w.Append(seq, entries); err != nil {
			t.Fatal(err)
		}
		seq += 7
	}); n != 0 {
		t.Fatalf("Append allocates %.2f times per frame, want 0", n)
	}
}

func TestWALTornTailTruncatesCleanly(t *testing.T) {
	path := walPath(t)
	w, err := OpenWALFile(OsFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(uint64(i), []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A crash mid-append can tear the tail anywhere: replay must deliver
	// every intact prefix frame and stop, never erroring or delivering a
	// torn one.
	for cut := len(raw) - 1; cut > 12; cut-- {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := replayCount(t, path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if want := (cut - 12) / (WALFrameHeader + 5); n != want {
			t.Fatalf("cut at %d replayed %d frames from a torn log, want %d", cut, n, want)
		}
	}

	// A bit flip in a middle frame — its body, or the sequence number the
	// CRC also covers — stops replay before the flip.
	for _, at := range []int{12 + 21 + 18, 12 + 21 + 9} {
		flipped := bytes.Clone(raw)
		flipped[at] ^= 1
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if n, err := replayCount(t, path); err != nil || n != 1 {
			t.Fatalf("bit-flipped log at %d: n=%d err=%v", at, n, err)
		}
	}

	// A corrupt preamble is an error, not a silent empty log.
	if err := os.WriteFile(path, []byte("NOTAWAL0....."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayCount(t, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad preamble: %v", err)
	}

	// A *torn* preamble (crash during initialization, before the fsync
	// landed) is an empty log, not corruption: replay finds nothing and
	// reopening reinitializes the file.
	for _, torn := range [][]byte{{}, raw[:5]} {
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if n, err := replayCount(t, path); err != nil || n != 0 {
			t.Fatalf("torn preamble (%d bytes): n=%d err=%v", len(torn), n, err)
		}
		w, err := OpenWALFile(OsFS{}, path)
		if err != nil {
			t.Fatalf("reopening torn preamble: %v", err)
		}
		if err := w.Append(0, []byte("fresh")); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if n, err := replayCount(t, path); err != nil || n != 1 {
			t.Fatalf("after reinit: n=%d err=%v", n, err)
		}
	}
}

func TestReplayStopsOnCallbackError(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWALFile(OsFS{}, path)
	w.Append(0, []byte("a"))
	w.Append(1, []byte("b"))
	w.Close()
	boom := errors.New("boom")
	n, err := ReplayWALFile(OsFS{}, path, func(fr WALFrame) error {
		if string(fr.Body) == "b" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}
