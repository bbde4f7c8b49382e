package stream_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestTornFrameEnumeration crashes a small Cookie Monster run (the shape of
// testdata/ckpt-7fcfa9d: two-day epochs, LateDrop, a snapshot every two
// days compacted every two deltas, group commits of 2) in the middle of a
// snapshot period, then tears its newest WAL segment at every byte length
// and, separately, flips every byte of the segment's last frame. Each torn
// directory resumes and runs to the end with the uninterrupted run's digest,
// drops and budget denials, and its replay restores exactly the entries of
// the whole, intact frames below the cut — a torn or bit-flipped frame ends
// the segment's replay, and nothing of it is applied.
func TestTornFrameEnumeration(t *testing.T) {
	outcome := func(cfg stream.Config, run *stream.Run) (digest string, denials uint64) {
		run.Fleet.Range(func(d *core.Device) bool {
			denials += d.BudgetDenials()
			return true
		})
		return (&workload.Run{Config: cfg, Run: run}).CanonicalDigest(), denials
	}
	refCfg := stream.CMFixtureConfig(t.TempDir())
	svc, err := stream.New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := svc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, wantDenials := outcome(refCfg, ref)

	dir := t.TempDir()
	crash := stream.CMFixtureConfig(dir)
	boom := errors.New("crash")
	// Crash as a period's second group commit lands: the newest segment
	// holds two frames.
	commits := 0
	crash.FaultHook = func(p stream.FaultPoint) error {
		switch p {
		case stream.PointDeltaCaptured:
			commits = 0
		case stream.PointGroupCommit:
			commits++
		case stream.PointEventIngested:
			if commits == 2 {
				return boom
			}
		}
		return nil
	}
	if svc, err = stream.New(crash); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Serve(); !errors.Is(err, boom) {
		t.Fatalf("crash run: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("crash left no WAL segment: %v", err)
	}
	newest := filepath.Base(segs[len(segs)-1])
	raw, err := os.ReadFile(filepath.Join(dir, newest))
	if err != nil {
		t.Fatal(err)
	}

	// The intact segment's frames: where each ends, and how many entries
	// it holds.
	var ends, entries []int
	end := 12
	var dec events.RunDecoder
	_, err = checkpoint.ReplayWALFile(checkpoint.OsFS{}, filepath.Join(dir, newest), func(fr checkpoint.WALFrame) error {
		n, err := dec.Decode(fr.Body, func(events.Event, bool) error { return nil })
		end += 16 + len(fr.Body)
		ends, entries = append(ends, end), append(entries, n)
		return err
	})
	if err != nil || end != len(raw) || len(ends) != 2 {
		t.Fatalf("newest segment %s: %d frames ending at %d of %d bytes (%v); want 2, both intact", newest, len(ends), end, len(raw), err)
	}

	// resume restores dir with the newest segment replaced by seg, checks
	// the finished run, and returns the ingest cursor recovery reached.
	resume := func(label string, seg []byte) int {
		t.Helper()
		d := t.TempDir()
		if err := os.CopyFS(d, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, newest), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := stream.CMFixtureConfig(d)
		svc, err := stream.ResumeFrom(cfg, d)
		if err != nil {
			t.Fatalf("%s: resume: %v", label, err)
		}
		cursor := svc.Ingested()
		run, err := svc.Serve()
		if err != nil {
			t.Fatalf("%s: resumed run: %v", label, err)
		}
		digest, denials := outcome(cfg, run)
		if digest != wantDigest || run.EventsDropped != ref.EventsDropped || denials != wantDenials {
			t.Fatalf("%s: digest %s, %d dropped, %d denials; uninterrupted %s, %d, %d",
				label, digest, run.EventsDropped, denials, wantDigest, ref.EventsDropped, wantDenials)
		}
		return cursor
	}
	// intact counts the entries of the frames wholly within the first cut
	// bytes.
	intact := func(cut int) (n int) {
		for i, end := range ends {
			if end <= cut {
				n += entries[i]
			}
		}
		return n
	}
	floor := resume("preamble only", raw[:12])
	resumes := 1
	for cut := 0; cut <= len(raw); cut++ {
		if got, want := resume(fmt.Sprintf("cut at %d", cut), raw[:cut])-floor, intact(cut); got != want {
			t.Fatalf("cut at %d of %d: replay restored %d entries of the newest segment, its intact frames hold %d",
				cut, len(raw), got, want)
		}
		resumes++
	}
	last := ends[len(ends)-2]
	for at := last; at < len(raw); at++ {
		flipped := bytes.Clone(raw)
		flipped[at] ^= 0xff
		if got, want := resume(fmt.Sprintf("flip at %d", at), flipped)-floor, intact(last); got != want {
			t.Fatalf("flip at %d of the last frame [%d, %d): replay restored %d entries of the newest segment, want %d",
				at, last, len(raw), got, want)
		}
		resumes++
	}
	t.Logf("%d resumes over a %d-byte segment of %d frames", resumes, len(raw), len(ends))
}
