// Command dashboard renders the Fig. 1 privacy-loss dashboard as text: it
// replays a small browsing trace on one device and prints, per querier site
// and epoch, the budget each site's attribution reports have consumed.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/events"
)

func main() {
	epsG := flag.Float64("epsilon", 1.0, "per-epoch budget capacity ε^G")
	width := flag.Int("width", 40, "bar width in characters")
	flag.Parse()

	db := events.NewDatabase()

	// A month of Ann's browsing: Nike ads on nytimes.com and bbc.com,
	// sportswear ads from a second advertiser, then purchases.
	type imp struct {
		day                int
		pub, adv, campaign string
	}
	for i, im := range []imp{
		{2, "nytimes.com", "nike.com", "shoes"},
		{9, "bbc.com", "nike.com", "shoes"},
		{11, "nytimes.com", "adidas.com", "track"},
		{16, "facebook.com", "nike.com", "shoes"},
		{23, "bbc.com", "adidas.com", "track"},
	} {
		db.Record(events.EpochOfDay(im.day, 7), events.Event{
			ID: events.EventID(i + 1), Kind: events.KindImpression,
			Device: 1, Day: im.day, Publisher: events.Intern(im.pub),
			Advertiser: events.Intern(im.adv), Campaign: events.Intern(im.campaign),
		})
	}

	// Ann's device comes out of the same fleet registry the workload
	// engine uses. The store is read single-threaded, after the last Record.
	fleet := core.NewFleet(db, *epsG, core.CookieMonsterPolicy{})
	dev := fleet.GetOrCreate(1)

	// Conversions trigger attribution reports, consuming budget.
	report := func(day int, adv, campaign string, value, cap float64) {
		first, last := events.EpochWindow(day, 30, 7)
		_, _, err := dev.GenerateReport(&core.Request{
			Querier:    adv,
			FirstEpoch: first, LastEpoch: last,
			Selector:          events.NewCampaignSelector(events.Intern(adv), events.Intern(campaign)),
			Function:          attribution.Slots{Logic: attribution.LastTouch{}, MaxImpressions: 2, Value: value},
			Epsilon:           0.2,
			ReportSensitivity: value,
			QuerySensitivity:  cap,
			PNorm:             1,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	report(25, "nike.com", "shoes", 70, 100)
	report(27, "nike.com", "shoes", 40, 100)
	report(28, "adidas.com", "track", 55, 80)

	fmt.Printf("Privacy-loss dashboard (device 1, ε^G=%.2f per epoch)\n\n", *epsG)
	fmt.Print(core.RenderDashboard(dev.Ledger(), *width))
}
