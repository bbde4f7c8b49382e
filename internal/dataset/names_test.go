package dataset

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/events"
	"repro/internal/stats"
)

// sharedNames checks that every advertiser, product and campaign name in the
// trace — and in its advertisers' metadata — is one string per value: the
// same backing array wherever the value occurs.
func sharedNames(t *testing.T, ds *Dataset) {
	t.Helper()
	backing := make(map[string]*byte)
	check := func(where, name string) {
		if name == "" {
			return
		}
		p := unsafe.StringData(name)
		if first, ok := backing[name]; !ok {
			backing[name] = p
		} else if first != p {
			t.Fatalf("%s %q has its own backing array", where, name)
		}
	}
	for _, adv := range ds.Advertisers {
		check("advertiser site", adv.Site.String())
		for _, p := range adv.Products {
			check("advertiser product", p.String())
		}
	}
	for i, ev := range ds.Events {
		check(fmt.Sprintf("event %d advertiser", i), ev.Advertiser.String())
		check(fmt.Sprintf("event %d product", i), ev.Product.String())
		check(fmt.Sprintf("event %d campaign", i), ev.Campaign.String())
	}
	if len(backing) < 2 {
		t.Fatalf("trace holds %d distinct names: nothing to share", len(backing))
	}
}

// criteoPerEventNames is the Criteo generator's event loop as it was when
// it named every event on its own: a fresh advertiser string per event, a
// fresh product string per conversion. Same RNG stream, same draws.
func criteoPerEventNames(cfg CriteoConfig) []events.Event {
	rng := stats.Stream(cfg.Seed, "criteo")
	zipf := stats.NewZipf(cfg.Advertisers, cfg.ZipfExponent)
	advSite := func(a int) events.Site {
		return events.Intern(fmt.Sprintf("advertiser-%03d.example", a))
	}
	density := make([]float64, cfg.Advertisers+1)
	for a := 1; a <= cfg.Advertisers; a++ {
		density[a] = cfg.ImpressionsPerConversion * rng.LogNormal(0, cfg.DensitySpread)
	}
	var evs []events.Event
	var id events.EventID
	for i := 0; i < cfg.TotalConversions; i++ {
		a := zipf.Sample(rng)
		dev := events.DeviceID(rng.Intn(cfg.Users) + 1)
		day := rng.Intn(cfg.DurationDays)
		product := events.Intern(fmt.Sprintf("product-%d", rng.Intn(3)))
		id++
		evs = append(evs, events.Event{
			ID: id, Kind: events.KindConversion, Device: dev, Day: day,
			Advertiser: advSite(a), Product: product,
			Value: float64(1 + rng.Intn(cfg.MaxValue)),
		})
		n := rng.Poisson(density[a]) + cfg.AugmentImpressions
		for j := 0; j < n; j++ {
			impDay := max(day-rng.Intn(cfg.WindowDays), 0)
			id++
			evs = append(evs, events.Event{
				ID: id, Kind: events.KindImpression, Device: dev, Day: impDay,
				Publisher: events.Intern("criteo-publisher.example"), Advertiser: advSite(a), Campaign: product,
			})
		}
	}
	return evs
}

// TestGeneratorsShareNames pins that the generators name each advertiser
// and product once and index the names per event, for every generator the
// workloads use; and that naming once changed no event: a Criteo trace
// equals the one the per-event naming made.
func TestGeneratorsShareNames(t *testing.T) {
	criteoCfg := DefaultCriteoConfig()
	criteoCfg.Advertisers = 20
	criteoCfg.Users = 2000
	criteoCfg.TotalConversions = 4000
	criteoCfg.AugmentImpressions = 1

	rows := []struct {
		name string
		gen  func() (*Dataset, error)
	}{
		{"criteo", func() (*Dataset, error) { return Criteo(criteoCfg) }},
		{"synthetic", func() (*Dataset, error) {
			cfg := DefaultSyntheticConfig()
			cfg.Population = 2000
			cfg.BatchSize = 200
			src, err := NewSynthetic(cfg)
			if err != nil {
				return nil, err
			}
			return Materialize(src), nil
		}},
		{"micro", func() (*Dataset, error) { return Micro(DefaultMicroConfig()) }},
		{"patcg", func() (*Dataset, error) {
			cfg := DefaultPATCGConfig()
			cfg.Users = 2000
			return PATCG(cfg)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ds, err := row.gen()
			if err != nil {
				t.Fatal(err)
			}
			sharedNames(t, ds)
		})
	}

	t.Run("criteo-matches-per-event-naming", func(t *testing.T) {
		ds, err := Criteo(criteoCfg)
		if err != nil {
			t.Fatal(err)
		}
		old := criteoPerEventNames(criteoCfg)
		if len(ds.Events) != len(old) {
			t.Fatalf("trace has %d events, per-event naming made %d", len(ds.Events), len(old))
		}
		for i := range old {
			if ds.Events[i] != old[i] {
				t.Fatalf("event %d differs:\n  %+v\n  %+v", i, ds.Events[i], old[i])
			}
		}
		for _, adv := range ds.Advertisers {
			if !reflect.DeepEqual(adv.Products, []events.Sym{events.Intern("product-0"), events.Intern("product-1"), events.Intern("product-2")}) {
				t.Fatalf("advertiser %s lists products %v", adv.Site, adv.Products)
			}
		}
	})
}
