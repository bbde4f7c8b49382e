package events

import "testing"

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
