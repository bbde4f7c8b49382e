// Quickstart: the paper's §3.2 running example, end to end on one device.
//
// Ann sees two Nike shoe ads (epochs e1 and e2), nothing in e3, and buys the
// shoes in e4. Nike requests an attribution report with a $100 value cap and
// ε = 0.01; Cookie Monster deducts individual privacy loss only where Ann's
// data could actually influence the query.
package main

import (
	"fmt"
	"log"

	"repro/internal/attribution"
	"repro/internal/core"
	"repro/internal/events"
)

func main() {
	db := events.NewDatabase()
	nike := events.Intern("nike.com")
	shoes := events.Intern("shoes")

	// @e1: impression I₁ (nytimes.com), @e2: impression I₂ (bbc.com).
	db.Record(1, events.Event{ID: 1, Kind: events.KindImpression, Device: 1,
		Day: 7, Publisher: events.Intern("nytimes.com"), Advertiser: nike, Campaign: shoes})
	db.Record(2, events.Event{ID: 2, Kind: events.KindImpression, Device: 1,
		Day: 15, Publisher: events.Intern("bbc.com"), Advertiser: nike, Campaign: shoes})
	// @e4: conversion C₁ — Ann buys the $70 shoes.
	db.Record(4, events.Event{ID: 3, Kind: events.KindConversion, Device: 1,
		Day: 29, Advertiser: nike, Product: shoes, Value: 70})

	// Ann's device enforces ε^G = 1 per (querier, epoch).
	device := core.NewDevice(1, db, 1.0, core.CookieMonsterPolicy{})

	// Nike's attribution request: search epochs e1–e4, attribute the $70
	// conversion to at most 2 impressions (last-touch), declare the $100
	// price cap as query sensitivity.
	report, diag, err := device.GenerateReport(&core.Request{
		Querier:    nike.String(),
		FirstEpoch: 1, LastEpoch: 4,
		Selector:          events.NewCampaignSelector(nike, shoes),
		Function:          attribution.Slots{Logic: attribution.LastTouch{}, MaxImpressions: 2, Value: 70},
		Epsilon:           0.01,
		ReportSensitivity: 70,  // Ann's conversion value
		QuerySensitivity:  100, // the max shoe price
		PNorm:             1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("attribution report ρ = %v  (nonce %d)\n\n", report.Histogram, report.Nonce)
	fmt.Println("individual privacy loss per epoch (Thm. 4):")
	for e := events.Epoch(1); e <= 4; e++ {
		fmt.Printf("  e%d: loss %.4f  (relevant events: %d)\n",
			e, diag.LossAt(e), diag.RelevantAt(e))
	}
	fmt.Println("\n  e1, e2 pay ε·70/100 = 0.007 (report-cap optimization);")
	fmt.Println("  e3, e4 pay 0 (no relevant impressions: zero individual sensitivity).")

	fmt.Println("\nAnn's privacy-loss dashboard after the report:")
	fmt.Print(core.RenderDashboard(device.Ledger(), 30))
}
