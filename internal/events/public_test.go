package events

import "testing"

// PublicView models the querier's public-event domain P ⊆ I ∪ C (§4.1.1):
// the events the querier can reliably observe first-party. For an advertiser
// this is the conversions on its own site; for a publisher/ad-tech it is the
// impressions it served. Modelling P explicitly is what lets Cookie Monster
// (1) spend zero budget in the conversion's own epoch when queries only use
// public events through their report identifier (Thm. 1 case 1), and
// (2) state the within-site unlinkability guarantee (Thm. 2).
type PublicView struct {
	// Querier is the site whose viewpoint this is.
	Querier Site
	// AsAdvertiser marks conversions on Querier's site public.
	AsAdvertiser bool
	// AsPublisher marks impressions served on Querier's site public.
	AsPublisher bool
}

// AdvertiserView returns the public view of an advertiser querier: P = C_q,
// all conversions on its own site (the Nike perspective of §4.1.3).
func AdvertiserView(q Site) PublicView {
	return PublicView{Querier: q, AsAdvertiser: true}
}

// PublisherView returns the public view of a publisher/ad-tech querier:
// P = I_q, all impressions served on its site (the Meta perspective of
// Appendix A).
func PublisherView(q Site) PublicView {
	return PublicView{Querier: q, AsPublisher: true}
}

// Contains reports whether the event is in the querier's public domain P.
func (p PublicView) Contains(ev Event) bool {
	switch ev.Kind {
	case KindConversion:
		return p.AsAdvertiser && ev.Advertiser == p.Querier
	case KindImpression:
		return p.AsPublisher && ev.Publisher == p.Querier
	default:
		return false
	}
}

// Restrict returns F ∩ P, the public part of a device-epoch record.
func (p PublicView) Restrict(evs []Event) []Event {
	var out []Event
	for _, ev := range evs {
		if p.Contains(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// Union merges two public views, modelling colluding queriers whose joint
// side information is P = P₁ ∪ ... ∪ Pₙ (Thm. 10). The merged view contains
// an event if either constituent does.
type Union []PublicView

// Contains reports whether any constituent view contains ev.
func (u Union) Contains(ev Event) bool {
	for _, p := range u {
		if p.Contains(ev) {
			return true
		}
	}
	return false
}

func TestAdvertiserView(t *testing.T) {
	p := AdvertiserView(Intern("nike.com"))
	ownConv := conv(1, 1, 0, "nike.com", 70)
	otherConv := conv(2, 1, 0, "adidas.com", 30)
	ownImp := Event{Kind: KindImpression, Publisher: Intern("nike.com"), Advertiser: Intern("nike.com")}
	if !p.Contains(ownConv) {
		t.Fatal("advertiser must see own conversions")
	}
	if p.Contains(otherConv) {
		t.Fatal("advertiser must not see other sites' conversions")
	}
	if p.Contains(ownImp) {
		t.Fatal("pure advertiser view must not include impressions")
	}
}

func TestPublisherView(t *testing.T) {
	p := PublisherView(Intern("facebook.com"))
	servedImp := Event{Kind: KindImpression, Publisher: Intern("facebook.com"), Advertiser: Intern("nike.com")}
	otherImp := Event{Kind: KindImpression, Publisher: Intern("nytimes.com"), Advertiser: Intern("nike.com")}
	ownConv := conv(1, 1, 0, "facebook.com", 5)
	if !p.Contains(servedImp) {
		t.Fatal("publisher must see impressions it served")
	}
	if p.Contains(otherImp) {
		t.Fatal("publisher must not see impressions elsewhere")
	}
	if p.Contains(ownConv) {
		t.Fatal("pure publisher view must not include conversions")
	}
}

func TestRestrict(t *testing.T) {
	p := AdvertiserView(Intern("nike.com"))
	evs := []Event{
		imp(1, 1, 0, "nike.com"),
		conv(2, 1, 1, "nike.com", 70),
		conv(3, 1, 2, "adidas.com", 30),
	}
	got := p.Restrict(evs)
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("Restrict = %v", got)
	}
	if p.Restrict(nil) != nil {
		t.Fatal("Restrict(nil) should be nil")
	}
}

func TestUnionContains(t *testing.T) {
	u := Union{AdvertiserView(Intern("nike.com")), PublisherView(Intern("nytimes.com"))}
	nikeConv := conv(1, 1, 0, "nike.com", 70)
	nytImp := Event{Kind: KindImpression, Publisher: Intern("nytimes.com"), Advertiser: Intern("nike.com")}
	strangerImp := Event{Kind: KindImpression, Publisher: Intern("bbc.com"), Advertiser: Intern("nike.com")}
	if !u.Contains(nikeConv) || !u.Contains(nytImp) {
		t.Fatal("union missing constituent events")
	}
	if u.Contains(strangerImp) {
		t.Fatal("union contains unrelated event")
	}
	if (Union{}).Contains(nikeConv) {
		t.Fatal("empty union contains something")
	}
}

func TestContainsUnknownKind(t *testing.T) {
	p := PublicView{Querier: Intern("x"), AsAdvertiser: true, AsPublisher: true}
	if p.Contains(Event{Kind: Kind(7), Advertiser: Intern("x"), Publisher: Intern("x")}) {
		t.Fatal("unknown kind should never be public")
	}
}
