package workload_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/figures"
	"repro/internal/workload"
)

// queryPlan is one batch awaiting execution.
type queryPlan struct {
	advertiser dataset.Advertiser
	product    string
	batch      []events.Event // the B conversions, time-ordered
	fireDay    int            // day the batch filled
	seq        int            // chunk index within the stream (sort tie-break)
	epsilon    float64
}

// referencePlan is the paper's query schedule stated independently of the
// engine's incremental planner: it groups each advertiser's conversions per
// product into time-ordered batches of B and schedules the resulting queries
// by the day their batch filled, reproducing the paper's "once B reports are
// gathered, Nike runs its query" loop by a global sort over the materialized
// trace. cfg must carry its defaults (a Run's Config does).
func referencePlan(cfg workload.Config) []queryPlan {
	type stream struct {
		site    events.Site
		product string
	}
	byStream := make(map[stream][]events.Event)
	advBySite := make(map[events.Site]dataset.Advertiser, len(cfg.Dataset.Advertisers))
	for _, adv := range cfg.Dataset.Advertisers {
		advBySite[adv.Site] = adv
	}
	for _, ev := range cfg.Dataset.Events {
		if !ev.IsConversion() {
			continue
		}
		if _, ok := advBySite[ev.Advertiser]; !ok {
			continue // not a queryable advertiser
		}
		key := stream{ev.Advertiser, ev.Product}
		byStream[key] = append(byStream[key], ev)
	}

	var plans []queryPlan
	for key, convs := range byStream {
		adv := advBySite[key.site]
		sort.Slice(convs, func(i, j int) bool { return convs[i].Before(convs[j]) })
		eps := cfg.FixedEpsilon
		if eps <= 0 {
			eps = cfg.Calibration.Epsilon(
				adv.MaxValue, adv.BatchSize, adv.AvgReportValue)
		}
		b := adv.BatchSize
		max := len(convs) / b
		if cfg.MaxQueriesPerProduct > 0 && max > cfg.MaxQueriesPerProduct {
			max = cfg.MaxQueriesPerProduct
		}
		for q := 0; q < max; q++ {
			chunk := convs[q*b : (q+1)*b]
			plans = append(plans, queryPlan{
				advertiser: adv,
				product:    key.product,
				batch:      chunk,
				fireDay:    chunk[len(chunk)-1].Day,
				seq:        q,
				epsilon:    eps,
			})
		}
	}
	// The key (fireDay, site, product, seq) is total, so the schedule is
	// independent of map iteration order.
	sort.Slice(plans, func(i, j int) bool {
		if plans[i].fireDay != plans[j].fireDay {
			return plans[i].fireDay < plans[j].fireDay
		}
		if plans[i].advertiser.Site != plans[j].advertiser.Site {
			return plans[i].advertiser.Site < plans[j].advertiser.Site
		}
		if plans[i].product != plans[j].product {
			return plans[i].product < plans[j].product
		}
		return plans[i].seq < plans[j].seq
	})
	return plans
}

// checkSchedule holds a run's results to the reference plan of its own
// (defaulted) configuration: the same queries in the same order, each with
// the planned querier, product, fire day, ε, batch size and window span.
// With exactTruth — a trace in which every conversion is attributed, so a
// query's Q(D) is its batch's summed conversion values — each query's truth
// must also be its planned batch's, which pins the batch's membership and
// not only its size and days.
func checkSchedule(t *testing.T, label string, run *workload.Run, exactTruth bool) {
	t.Helper()
	plans := referencePlan(run.Config)
	if len(plans) == 0 {
		t.Fatalf("%s: the reference plans no query", label)
	}
	if len(run.Results) != len(plans) {
		t.Fatalf("%s: %d results, reference plans %d", label, len(run.Results), len(plans))
	}
	for i, p := range plans {
		first, last := events.Epoch(1<<31-1), events.Epoch(-1<<31)
		truth := 0.0
		for _, conv := range p.batch {
			f, l := events.EpochWindow(conv.Day, run.Config.WindowDays, run.Config.EpochDays)
			first, last = min(first, f), max(last, l)
			truth += conv.Value
		}
		res := run.Results[i]
		if !exactTruth {
			truth = res.Truth
		}
		want := fmt.Sprintf("#%d %s/%s day %d eps %v B %d epochs [%d, %d] truth %v",
			i, p.advertiser.Site, p.product, p.fireDay, p.epsilon, len(p.batch), first, last, truth)
		got := fmt.Sprintf("#%d %s/%s day %d eps %v B %d epochs [%d, %d] truth %v",
			res.Index, res.Querier, res.Product, res.FireDay, res.Epsilon, res.Batch, res.FirstEpoch, res.LastEpoch, res.Truth)
		if got != want {
			t.Fatalf("%s: query %d is %s, reference %s", label, i, got, want)
		}
	}
}

// handBuiltDataset is a trace made to stress the planner's inputs: events
// shuffled out of (Day, ID) order, same-day conversions of one stream whose
// ID order decides which batch each joins, a non-queryable advertiser's
// conversions, and two advertisers whose batches fill on the same day. Every
// queryable conversion carries a distinct value and follows an impression of
// its product on its device the day before, so it is attributed in full.
func handBuiltDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds := &dataset.Dataset{
		Name:              "hand-built",
		PopulationDevices: 12,
		DurationDays:      40,
		Advertisers: []dataset.Advertiser{
			{Site: "b.example", Products: []string{"p0", "p1"}, MaxValue: 1000, AvgReportValue: 50, BatchSize: 3},
			{Site: "a.example", Products: []string{"p0"}, MaxValue: 1000, AvgReportValue: 50, BatchSize: 2},
		},
	}
	id, value := events.EventID(1<<20), 0.0
	add := func(ev events.Event) {
		id -= 7 // IDs fall as days rise: the trace's own order is not (Day, ID)
		ev.ID = id
		ds.Events = append(ds.Events, ev)
	}
	convert := func(dev, day int, site events.Site, product string) {
		device := events.DeviceID(dev % ds.PopulationDevices)
		add(events.Event{Kind: events.KindImpression, Device: device, Day: day - 1,
			Publisher: "pub.example", Advertiser: site, Campaign: product})
		value++
		add(events.Event{Kind: events.KindConversion, Device: device, Day: day,
			Advertiser: site, Product: product, Value: value})
	}
	for day := 1; day < ds.DurationDays; day++ {
		// Both advertisers convert every third day, so their batches fill on
		// shared days; a.example converts twice more on some days.
		if day%3 == 0 {
			convert(day+1, day, "a.example", "p0")
			convert(day+2, day, "b.example", "p0")
			convert(day+3, day, "b.example", "p1")
		}
		if day%4 == 1 {
			convert(day+4, day, "a.example", "p0")
			convert(day+6, day, "a.example", "p0")
		}
		add(events.Event{Kind: events.KindConversion, Device: events.DeviceID(day % ds.PopulationDevices), Day: day,
			Advertiser: "c.example", Product: "p0", Value: 9}) // not queryable
	}
	rand.New(rand.NewSource(3)).Shuffle(len(ds.Events), func(i, j int) {
		ds.Events[i], ds.Events[j] = ds.Events[j], ds.Events[i]
	})
	return ds
}

// TestPlannerMatchesReferencePlan holds the engine's incremental planner, as
// Execute drives it (Engine.Replay: conversions bucketed by day, a Flush per
// fire day), to referencePlan's global sort — the independent half of the
// planning equivalence, now that the planner is the only product copy of the
// schedule. The streaming service feeds the same planner, and is held to
// Execute bit for bit by internal/stream's equivalence suites.
func TestPlannerMatchesReferencePlan(t *testing.T) {
	for _, w := range figures.All() {
		run, err := figures.BatchRef(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		checkSchedule(t, w.Name, run, false)
	}

	criteo, err := figures.ByName("criteo-cm")
	if err != nil {
		t.Fatal(err)
	}
	for label, mutate := range map[string]func(*workload.Config){
		"criteo-capped": func(c *workload.Config) { c.MaxQueriesPerProduct = 2 },
		"criteo-fixed":  func(c *workload.Config) { c.FixedEpsilon = 0.25 },
	} {
		cfg, err := criteo.Config()
		if err != nil {
			t.Fatal(err)
		}
		mutate(&cfg)
		run, err := workload.Execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkSchedule(t, label, run, false)
	}

	ds := handBuiltDataset(t)
	if slices.IsSortedFunc(ds.Events, func(a, b events.Event) int {
		return cmp.Or(cmp.Compare(a.Day, b.Day), cmp.Compare(a.ID, b.ID))
	}) {
		t.Fatal("hand-built trace is already in (Day, ID) order")
	}
	for _, sys := range workload.Systems {
		run, err := workload.Execute(workload.Config{Dataset: ds, System: sys, EpsilonG: 4, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkSchedule(t, "hand-built "+sys.String(), run, true)
		sharedDay := false
		for i := 1; i < len(run.Results); i++ {
			a, b := run.Results[i-1], run.Results[i]
			sharedDay = sharedDay || (a.FireDay == b.FireDay && a.Querier != b.Querier)
		}
		if !sharedDay {
			t.Fatalf("hand-built %v: no day fires two advertisers' queries", sys)
		}
	}
}
