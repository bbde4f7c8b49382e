package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
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
	return ReplayWALFile(OsFS{}, path, func([]byte) error { return nil })
}

func TestWALAppendReplay(t *testing.T) {
	path := walPath(t)
	w, err := OpenWALFile(OsFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		rec := []byte(fmt.Sprintf("event-%d", i))
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	n, err := ReplayWALFile(OsFS{}, path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil || n != len(want) {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: %q != %q", i, got[i], want[i])
		}
	}

	// Reopening appends after the existing records.
	w, err = OpenWALFile(OsFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("late")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	n, _ = replayCount(t, path)
	if n != 11 {
		t.Fatalf("after reopen: %d records", n)
	}
}

// TestWALAppendAllocatesNothing pins Append's steady state at zero heap
// allocations per record: the frame header must not escape per call, and
// the buffered writer's flushes into the file allocate nothing either.
func TestWALAppendAllocatesNothing(t *testing.T) {
	w, err := OpenWALFile(OsFS{}, walPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payload := bytes.Repeat([]byte{0xa5}, 100)
	if n := testing.AllocsPerRun(2000, func() {
		if err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append allocates %.2f times per record, want 0", n)
	}
}

func TestWALTornTailTruncatesCleanly(t *testing.T) {
	path := walPath(t)
	w, err := OpenWALFile(OsFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A crash mid-append can tear the tail anywhere: replay must deliver
	// every intact prefix record and stop, never erroring or delivering a
	// torn one.
	for cut := len(raw) - 1; cut > 12; cut-- {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := replayCount(t, path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if n > 4 {
			t.Fatalf("cut at %d replayed %d records from a torn log", cut, n)
		}
	}

	// A bit flip in a middle record stops replay before the flip.
	flipped := append([]byte(nil), raw...)
	flipped[30] ^= 1
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := replayCount(t, path); err != nil || n >= 5 {
		t.Fatalf("bit-flipped log: n=%d err=%v", n, err)
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
		if err := w.Append([]byte("fresh")); err != nil {
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
	w.Append([]byte("a"))
	w.Append([]byte("b"))
	w.Close()
	boom := errors.New("boom")
	n, err := ReplayWALFile(OsFS{}, path, func(p []byte) error {
		if string(p) == "b" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}
