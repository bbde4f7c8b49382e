package events_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/dataset"
	"repro/internal/events"
)

// The columnar codec writes names, never symbol numbers, so its bytes over
// a fixed generated trace are pinned: a change that leaks process-local
// numbering into the format moves this hash. The run format's bytes are
// pinned by TestRunBytesPinned.
const pinnedBlobSHA256 = "8fdf89e461db6d2e77cd991660ff946b5e0b59d6cf01c9abe5924b7f05c51adb"

func pinTrace(t *testing.T) []events.Event {
	t.Helper()
	cfg := dataset.DefaultCriteoConfig()
	cfg.Seed = 11
	cfg.Advertisers = 12
	cfg.Users = 400
	cfg.TotalConversions = 1500
	ds, err := dataset.Criteo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Events
}

func TestCodecBytesPinned(t *testing.T) {
	evs := pinTrace(t)

	// One blob per (device, epoch) record in first-appearance order, each
	// record's events in trace order (the snapshot path's unit), then one
	// blob of the whole trace, whose name table outgrows the linear scan.
	type key struct {
		dev events.DeviceID
		ep  events.Epoch
	}
	records := make(map[key][]events.Event)
	var order []key
	for _, ev := range evs {
		k := key{ev.Device, events.EpochOfDay(ev.Day, 7)}
		if _, ok := records[k]; !ok {
			order = append(order, k)
		}
		records[k] = append(records[k], ev)
	}
	blobs := sha256.New()
	for _, k := range order {
		blobs.Write(events.MarshalEvents(records[k]))
	}
	blobs.Write(events.MarshalEvents(evs))

	if got := hex.EncodeToString(blobs.Sum(nil)); got != pinnedBlobSHA256 {
		t.Errorf("MarshalEvents blobs of %d records: sha256 %s, pinned %s", len(order), got, pinnedBlobSHA256)
	}
}
