package scenario

import (
	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/stats"
)

// The perturbation wrappers. Each wraps a dataset.Source and reshapes its
// delivery sequence deterministically from the spec seed; none of them
// mutates the base dataset. Device identities follow the repository's
// generator convention of IDs 1..PopulationDevices, which churn and the
// adversary rely on when minting fresh IDs and picking targets.

// renumberSource assigns sequential event IDs in delivery order. It is the
// outermost layer of every scenario source: after renumbering, any
// day-monotonic subsequence of the delivery order — in particular the
// subsequence the service admits — is fully (Day, ID) sorted, so the batch
// engine's sorted plan over the admitted events chunks batches exactly as
// the streaming planner's arrival order does.
type renumberSource struct {
	base dataset.Source
	next events.EventID
}

func (r *renumberSource) Meta() dataset.Meta { return r.base.Meta() }

func (r *renumberSource) Next() (events.Event, bool) {
	ev, ok := r.base.Next()
	if !ok {
		return events.Event{}, false
	}
	r.next++
	ev.ID = r.next
	return ev, true
}

// mapSource rewrites each event through a pure function.
type mapSource struct {
	base dataset.Source
	meta dataset.Meta
	fn   func(events.Event) events.Event
}

func (s *mapSource) Meta() dataset.Meta { return s.meta }

func (s *mapSource) Next() (events.Event, bool) {
	ev, ok := s.base.Next()
	if !ok {
		return events.Event{}, false
	}
	return s.fn(ev), true
}

// churnPlan is one churning device's fate: it leaves after leaveDay and its
// later events re-appear under the reborn identity.
type churnPlan struct {
	leaveDay int
	reborn   events.DeviceID
}

// newChurnSource plans churn over the base population: each device churns
// with spec.Fraction probability at a day in the middle half of the trace,
// and its post-leave events remap to a fresh ID appended past the
// population. The metadata's population grows by the number of churners so
// downstream population denominators count the reborn identities.
func newChurnSource(base dataset.Source, spec ChurnSpec, seed uint64) dataset.Source {
	meta := base.Meta()
	rng := stats.Stream(seed, "scenario-churn")
	plans := make(map[events.DeviceID]churnPlan)
	reborn := events.DeviceID(meta.PopulationDevices)
	span := meta.DurationDays / 2
	if span < 1 {
		span = 1
	}
	for id := 1; id <= meta.PopulationDevices; id++ {
		if rng.Float64() >= spec.Fraction {
			continue
		}
		reborn++
		plans[events.DeviceID(id)] = churnPlan{
			leaveDay: meta.DurationDays/4 + rng.Intn(span),
			reborn:   reborn,
		}
	}
	meta.PopulationDevices = int(reborn)
	return &mapSource{base: base, meta: meta, fn: func(ev events.Event) events.Event {
		if p, ok := plans[ev.Device]; ok && ev.Day > p.leaveDay {
			ev.Device = p.reborn
		}
		return ev
	}}
}

// newSkewSource gives a seeded fraction of devices a clock offset: their
// events keep their delivery position but carry a day stamp shifted by the
// device's skew, clamped to the trace. Backward skew turns the device's own
// traffic late; forward skew advances the service's day clock early,
// dropping other devices' still-current traffic.
func newSkewSource(base dataset.Source, spec SkewSpec, seed uint64) dataset.Source {
	meta := base.Meta()
	rng := stats.Stream(seed, "scenario-skew")
	shift := make(map[events.DeviceID]int)
	for id := 1; id <= meta.PopulationDevices; id++ {
		if rng.Float64() >= spec.Fraction {
			continue
		}
		d := 1 + rng.Intn(spec.MaxSkewDays)
		if !spec.Forward {
			d = -d
		}
		shift[events.DeviceID(id)] = d
	}
	maxDay := meta.DurationDays - 1
	return &mapSource{base: base, meta: meta, fn: func(ev events.Event) events.Event {
		d, ok := shift[ev.Device]
		if !ok {
			return ev
		}
		ev.Day += d
		if ev.Day < 0 {
			ev.Day = 0
		}
		if ev.Day > maxDay {
			ev.Day = maxDay
		}
		return ev
	}}
}

// injectSource merges a pre-built day-sorted injection list into the base
// stream: a day's injections deliver after the base events of that day (and
// before any later-day base event), so a day-ordered base stays day-ordered.
type injectSource struct {
	base    dataset.Source
	meta    dataset.Meta
	inject  []events.Event
	i       int
	pending events.Event
	havePen bool
	done    bool
}

func (s *injectSource) Meta() dataset.Meta { return s.meta }

func (s *injectSource) Next() (events.Event, bool) {
	if !s.havePen && !s.done {
		if ev, ok := s.base.Next(); ok {
			s.pending, s.havePen = ev, true
		} else {
			s.done = true
		}
	}
	if s.i < len(s.inject) && (s.done || s.inject[s.i].Day < s.pending.Day) {
		ev := s.inject[s.i]
		s.i++
		return ev, true
	}
	if s.havePen {
		s.havePen = false
		return s.pending, true
	}
	return events.Event{}, false
}

// newBurstSource injects the flash crowd: spec.Events impressions for one
// advertiser's first campaign, all on spec.Day, on seeded random devices.
func newBurstSource(base dataset.Source, spec BurstSpec, seed uint64) dataset.Source {
	meta := base.Meta()
	rng := stats.Stream(seed, "scenario-burst")
	adv := meta.Advertisers[spec.Advertiser]
	campaign := ""
	if len(adv.Products) > 0 {
		campaign = adv.Products[0]
	}
	inject := make([]events.Event, 0, spec.Events)
	for i := 0; i < spec.Events; i++ {
		inject = append(inject, events.Event{
			Kind:       events.KindImpression,
			Device:     events.DeviceID(1 + rng.Intn(meta.PopulationDevices)),
			Day:        spec.Day,
			Publisher:  "flashcrowd.example",
			Advertiser: adv.Site,
			Campaign:   campaign,
		})
	}
	return &injectSource{base: base, meta: meta, inject: inject}
}

// newAdversarySource adds the budget-drain attacker: a new querier in the
// metadata plus its traffic — one daily impression per target device (so the
// targets' epochs hold relevant events and the attacker's charges are
// non-zero under Cookie Monster's zero-loss optimization) and a round-robin
// stream of max-value conversions that fill the attacker's batches.
func newAdversarySource(base dataset.Source, spec AdversarySpec, seed uint64) dataset.Source {
	meta := base.Meta()
	advs := make([]dataset.Advertiser, len(meta.Advertisers), len(meta.Advertisers)+1)
	copy(advs, meta.Advertisers)
	meta.Advertisers = append(advs, spec.advertiser())
	targets := spec.TargetDevices
	if targets > meta.PopulationDevices {
		targets = meta.PopulationDevices
	}
	var inject []events.Event
	conv := 0
	for day := 0; day < meta.DurationDays; day++ {
		for t := 0; t < targets; t++ {
			inject = append(inject, events.Event{
				Kind:       events.KindImpression,
				Device:     events.DeviceID(1 + t),
				Day:        day,
				Publisher:  "attacker-pub.example",
				Advertiser: spec.Site,
				Campaign:   adversaryProduct,
			})
		}
		for k := 0; k < spec.ConversionsPerDay; k++ {
			inject = append(inject, events.Event{
				Kind:       events.KindConversion,
				Device:     events.DeviceID(1 + conv%targets),
				Day:        day,
				Advertiser: spec.Site,
				Product:    adversaryProduct,
				Value:      spec.MaxValue,
			})
			conv++
		}
	}
	_ = seed // the attack schedule is fully deterministic; no randomness needed
	return &injectSource{base: base, meta: meta, inject: inject}
}

// delayed is one held-back event and the stream day it re-delivers on.
type delayed struct {
	release int
	ev      events.Event
}

// newDelaySource holds back a seeded fraction of events and re-delivers each
// DelayDays later in the stream with its original day stamp — by then its
// day has closed, making it late. Held events release in the order they were
// held (their release days are nondecreasing because the base is
// day-ordered); anything still held when the base drains flushes at the end.
func newDelaySource(base dataset.Source, spec LateSpec, seed uint64) dataset.Source {
	return &delaySource{
		base:  base,
		meta:  base.Meta(),
		rng:   stats.Stream(seed, "scenario-late"),
		frac:  spec.Fraction,
		delay: spec.DelayDays,
	}
}

type delaySource struct {
	base    dataset.Source
	meta    dataset.Meta
	rng     *stats.RNG
	frac    float64
	delay   int
	held    []delayed
	head    int
	pending events.Event
	havePen bool
	done    bool
}

func (s *delaySource) Meta() dataset.Meta { return s.meta }

func (s *delaySource) Next() (events.Event, bool) {
	for !s.havePen && !s.done {
		ev, ok := s.base.Next()
		if !ok {
			s.done = true
			break
		}
		if s.rng.Float64() < s.frac {
			s.held = append(s.held, delayed{release: ev.Day + s.delay, ev: ev})
			continue
		}
		s.pending, s.havePen = ev, true
	}
	if s.head < len(s.held) && (s.done || s.held[s.head].release <= s.pending.Day) {
		ev := s.held[s.head].ev
		s.head++
		return ev, true
	}
	if s.havePen {
		s.havePen = false
		return s.pending, true
	}
	return events.Event{}, false
}
