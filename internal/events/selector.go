package events

// Selector is the querier-provided relevant-event predicate F_A (§4.1.2):
// attribution functions only ever see F ∩ F_A, so the selector fully
// determines which on-device data a query can touch. Cookie Monster's
// zero-loss optimization fires exactly when an epoch's selection is empty.
type Selector interface {
	// Relevant reports whether the event belongs to F_A.
	Relevant(ev Event) bool
}

// SelectorFunc adapts a function to the Selector interface.
type SelectorFunc func(ev Event) bool

// Relevant implements Selector.
func (f SelectorFunc) Relevant(ev Event) bool { return f(ev) }

// Select returns the relevant subset F ∩ F_A of a device-epoch record,
// preserving order. It returns nil when nothing is relevant, which is the
// signal the budgeting engine uses for the zero-loss case.
func Select(evs []Event, sel Selector) []Event {
	var out []Event
	for _, ev := range evs {
		if sel.Relevant(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// CampaignSelector matches impressions for one advertiser whose campaign is
// in a given set. An empty campaign set matches every campaign of the
// advertiser. This is the selector used by the single-advertiser summation
// queries of §2.1 ("any impressions of campaigns a1 and a2").
type CampaignSelector struct {
	Advertiser Site
	Campaigns  map[Sym]bool
}

// NewCampaignSelector builds a CampaignSelector over the listed campaigns.
func NewCampaignSelector(advertiser Site, campaigns ...Sym) CampaignSelector {
	set := make(map[Sym]bool, len(campaigns))
	for _, c := range campaigns {
		set[c] = true
	}
	return CampaignSelector{Advertiser: advertiser, Campaigns: set}
}

// Relevant implements Selector: impressions of the advertiser, filtered by
// campaign when a campaign set was given. Conversions are never relevant;
// queries access public conversions only through report identifiers, which
// is the sufficient condition F_A ∩ P = ∅ for Thm. 1 case 1.
func (s CampaignSelector) Relevant(ev Event) bool {
	if !ev.IsImpression() || ev.Advertiser != s.Advertiser {
		return false
	}
	return len(s.Campaigns) == 0 || s.Campaigns[ev.Campaign]
}

// ProductSelector matches impressions for one advertiser that advertise a
// specific product (by campaign naming convention campaign == product key).
// Dataset generators tag campaigns with product keys so the workload's
// per-product queries can reuse this selector.
type ProductSelector struct {
	Advertiser Site
	Product    Sym
}

// Relevant implements Selector.
func (s ProductSelector) Relevant(ev Event) bool {
	return ev.IsImpression() && ev.Advertiser == s.Advertiser && ev.Campaign == s.Product
}

// WindowSelector wraps a Selector with a day range [FirstDay, LastDay],
// restricting relevance to impressions that occurred within the attribution
// window measured in days (epochs are coarser than days, so the first epoch
// of a window may straddle its boundary).
type WindowSelector struct {
	Inner    Selector
	FirstDay int
	LastDay  int
}

// Relevant implements Selector.
func (s WindowSelector) Relevant(ev Event) bool {
	if ev.Day < s.FirstDay || ev.Day > s.LastDay {
		return false
	}
	return s.Inner.Relevant(ev)
}
