package dataset

import (
	"testing"

	"repro/internal/events"
)

func TestMicroDefaultShape(t *testing.T) {
	cfg := DefaultMicroConfig()
	ds, err := Micro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantConv := cfg.Products * cfg.QueriesPerProduct * cfg.BatchSize
	if got := ds.Conversions(); got != wantConv {
		t.Fatalf("conversions = %d, want %d", got, wantConv)
	}
	if ds.PopulationDevices != int(float64(cfg.BatchSize)/cfg.Knob1+0.5) {
		t.Fatalf("population = %d", ds.PopulationDevices)
	}
	if ds.Impressions() == 0 {
		t.Fatal("no impressions generated")
	}
	if len(ds.Advertisers) != 1 {
		t.Fatalf("advertisers = %d", len(ds.Advertisers))
	}
	adv := ds.Advertisers[0]
	if adv.BatchSize != cfg.BatchSize || adv.MaxValue != 10 || len(adv.Products) != 10 {
		t.Fatalf("advertiser meta = %+v", adv)
	}
	if adv.AvgReportValue <= 0 || adv.AvgReportValue > adv.MaxValue {
		t.Fatalf("c̃ = %v out of range", adv.AvgReportValue)
	}
}

func TestMicroDeterministic(t *testing.T) {
	a, _ := Micro(DefaultMicroConfig())
	b, _ := Micro(DefaultMicroConfig())
	if len(a.Events) != len(b.Events) {
		t.Fatal("non-deterministic event count")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestMicroKnob1ControlsPopulation(t *testing.T) {
	lo := DefaultMicroConfig()
	lo.Knob1 = 0.01
	hi := DefaultMicroConfig()
	hi.Knob1 = 1.0
	dsLo, _ := Micro(lo)
	dsHi, _ := Micro(hi)
	if dsLo.PopulationDevices != 100*dsHi.PopulationDevices {
		t.Fatalf("population %d vs %d, want 100x", dsLo.PopulationDevices, dsHi.PopulationDevices)
	}
	// Same number of conversions either way.
	if dsLo.Conversions() != dsHi.Conversions() {
		t.Fatal("knob1 changed the conversion count")
	}
}

func TestMicroKnob1DistinctDevicesPerBatch(t *testing.T) {
	cfg := DefaultMicroConfig()
	cfg.Knob1 = 1.0 // population == batch: every device in every batch
	ds, _ := Micro(cfg)
	// Count conversions per device: must be exactly one per batch.
	perDevice := make(map[events.DeviceID]int)
	for _, ev := range ds.Events {
		if ev.IsConversion() {
			perDevice[ev.Device]++
		}
	}
	want := cfg.Products * cfg.QueriesPerProduct
	for dev, n := range perDevice {
		if n != want {
			t.Fatalf("device %d has %d conversions, want %d", dev, n, want)
		}
	}
}

func TestMicroKnob2ControlsImpressions(t *testing.T) {
	lo := DefaultMicroConfig()
	lo.Knob2 = 0.01
	hi := DefaultMicroConfig()
	hi.Knob2 = 0.5
	dsLo, _ := Micro(lo)
	dsHi, _ := Micro(hi)
	if dsLo.Impressions() >= dsHi.Impressions() {
		t.Fatalf("impressions %d !< %d", dsLo.Impressions(), dsHi.Impressions())
	}
}

func TestMicroValidation(t *testing.T) {
	bad := []func(*MicroConfig){
		func(c *MicroConfig) { c.Products = 0 },
		func(c *MicroConfig) { c.BatchSize = 0 },
		func(c *MicroConfig) { c.QueriesPerProduct = 0 },
		func(c *MicroConfig) { c.DurationDays = 0 },
		func(c *MicroConfig) { c.Knob1 = 0 },
		func(c *MicroConfig) { c.Knob1 = 1.5 },
		func(c *MicroConfig) { c.Knob2 = -1 },
		func(c *MicroConfig) { c.MaxValue = 0 },
		func(c *MicroConfig) { c.WindowDays = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultMicroConfig()
		mut(&cfg)
		if _, err := Micro(cfg); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestPATCGShape(t *testing.T) {
	cfg := DefaultPATCGConfig()
	cfg.Users = 5000 // keep the test fast
	ds, err := PATCG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conv := ds.Conversions()
	// ~1.5 conversions per user.
	perUser := float64(conv) / float64(cfg.Users)
	if perUser < 1.3 || perUser > 1.7 {
		t.Fatalf("conversions per user = %v, want ~1.5", perUser)
	}
	// ~3.2 impressions per user.
	perUserImp := float64(ds.Impressions()) / float64(cfg.Users)
	if perUserImp < 2.8 || perUserImp > 3.6 {
		t.Fatalf("impressions per user = %v, want ~3.2", perUserImp)
	}
	adv := ds.Advertisers[0]
	// Batch size supports the full query schedule for every product.
	perProduct := make(map[events.Sym]int)
	for _, ev := range ds.Events {
		if ev.IsConversion() {
			perProduct[ev.Product]++
		}
	}
	for p, n := range perProduct {
		if n < adv.BatchSize*cfg.QueriesPerProduct {
			t.Fatalf("product %s has %d conversions < %d batches×%d",
				p, n, cfg.QueriesPerProduct, adv.BatchSize)
		}
	}
}

func TestPATCGValidation(t *testing.T) {
	cfg := DefaultPATCGConfig()
	cfg.Users = 0
	if _, err := PATCG(cfg); err == nil {
		t.Fatal("zero users accepted")
	}
	cfg = DefaultPATCGConfig()
	cfg.MeanImpressions = -1
	if _, err := PATCG(cfg); err == nil {
		t.Fatal("negative impressions accepted")
	}
}

func TestCriteoShape(t *testing.T) {
	cfg := DefaultCriteoConfig()
	cfg.TotalConversions = 10000
	cfg.Users = 5000
	ds, err := Criteo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Conversions() != cfg.TotalConversions {
		t.Fatalf("conversions = %d", ds.Conversions())
	}
	if len(ds.Advertisers) == 0 {
		t.Fatal("no queryable advertisers")
	}
	if len(ds.Advertisers) >= cfg.Advertisers {
		t.Fatal("every advertiser queryable; size skew missing")
	}
	// Heavy tail: advertiser 1 (rank 1) must dominate.
	counts := make(map[events.Site]int)
	for _, ev := range ds.Events {
		if ev.IsConversion() {
			counts[ev.Advertiser]++
		}
	}
	if counts[events.Intern("advertiser-001.example")] < counts[events.Intern("advertiser-050.example")] {
		t.Fatal("Zipf skew inverted")
	}
}

func TestCriteoAugmentationAddsImpressions(t *testing.T) {
	base := DefaultCriteoConfig()
	base.TotalConversions = 5000
	base.Users = 2000
	plain, _ := Criteo(base)
	aug := base
	aug.AugmentImpressions = 4
	augmented, _ := Criteo(aug)
	// Augmentation adds ≈ 4 impressions per conversion.
	delta := augmented.Impressions() - plain.Impressions()
	if delta < 3*base.TotalConversions || delta > 5*base.TotalConversions {
		t.Fatalf("augmentation delta = %d impressions for %d conversions", delta, base.TotalConversions)
	}
	if plain.Conversions() != augmented.Conversions() {
		t.Fatal("augmentation changed conversions")
	}
}

func TestCriteoImpressionsInsideWindow(t *testing.T) {
	cfg := DefaultCriteoConfig()
	cfg.TotalConversions = 2000
	cfg.Users = 500
	cfg.AugmentImpressions = 2
	ds, _ := Criteo(cfg)
	for _, ev := range ds.Events {
		if ev.IsImpression() && (ev.Day < 0 || ev.Day >= cfg.DurationDays) {
			t.Fatalf("impression on day %d outside trace", ev.Day)
		}
	}
}

func TestCriteoValidation(t *testing.T) {
	cfg := DefaultCriteoConfig()
	cfg.ZipfExponent = 0
	if _, err := Criteo(cfg); err == nil {
		t.Fatal("zero zipf exponent accepted")
	}
	cfg = DefaultCriteoConfig()
	cfg.MinBatch = 0
	if _, err := Criteo(cfg); err == nil {
		t.Fatal("zero min batch accepted")
	}
}

func TestBuildPartitionsByEpoch(t *testing.T) {
	cfg := DefaultMicroConfig()
	cfg.BatchSize = 50
	ds, _ := Micro(cfg)
	db := events.NewFrozen(7, ds.Events)
	// Every event must land in the epoch matching its day.
	n := 0
	for k, evs := range db.Records() {
		for _, ev := range evs {
			if events.EpochOfDay(ev.Day, 7) != k.Epoch {
				t.Fatalf("event day %d in epoch %d", ev.Day, k.Epoch)
			}
			n++
		}
	}
	if n != len(ds.Events) {
		t.Fatalf("db has %d events, dataset has %d", n, len(ds.Events))
	}
}

func TestEpochsCount(t *testing.T) {
	ds := &Dataset{DurationDays: 120}
	if got := ds.Epochs(7); got != 18 {
		t.Fatalf("Epochs(7) = %d, want 18", got)
	}
	if got := ds.Epochs(30); got != 4 {
		t.Fatalf("Epochs(30) = %d, want 4", got)
	}
	if (&Dataset{}).Epochs(7) != 0 {
		t.Fatal("empty dataset epochs != 0")
	}
}

func TestAttributionRate(t *testing.T) {
	evs := []events.Event{
		{ID: 1, Kind: events.KindImpression, Device: 1, Day: 5, Campaign: events.Intern("p")},
		{ID: 2, Kind: events.KindConversion, Device: 1, Day: 10, Product: events.Intern("p")}, // attributed
		{ID: 3, Kind: events.KindConversion, Device: 2, Day: 10, Product: events.Intern("p")}, // no impression
		{ID: 4, Kind: events.KindConversion, Device: 1, Day: 50, Product: events.Intern("p")}, // outside window
		{ID: 5, Kind: events.KindConversion, Device: 1, Day: 10, Product: events.Intern("q")}, // wrong product
	}
	if got := attributionRate(evs, 30); got != 0.25 {
		t.Fatalf("rate = %v, want 0.25", got)
	}
	if attributionRate(nil, 30) != 0 {
		t.Fatal("empty rate != 0")
	}
}

func TestDatasetString(t *testing.T) {
	ds, _ := Micro(DefaultMicroConfig())
	if ds.String() == "" {
		t.Fatal("empty String()")
	}
}
