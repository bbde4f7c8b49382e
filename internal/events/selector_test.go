package events

import (
	"testing"
	"testing/quick"
)

func TestSelectPreservesOrderAndFilters(t *testing.T) {
	sel := NewCampaignSelector(Intern("nike.com"))
	evs := []Event{
		imp(1, 1, 0, "nike.com"),
		imp(2, 1, 1, "adidas.com"),
		imp(3, 1, 2, "nike.com"),
		conv(4, 1, 3, "nike.com", 70),
	}
	got := Select(evs, sel)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 {
		t.Fatalf("Select = %v", got)
	}
}

func TestSelectEmptyIsNil(t *testing.T) {
	sel := NewCampaignSelector(Intern("nike.com"))
	if Select(nil, sel) != nil {
		t.Fatal("Select(nil) should be nil")
	}
	if Select([]Event{imp(1, 1, 0, "adidas.com")}, sel) != nil {
		t.Fatal("all-irrelevant selection should be nil")
	}
}

func TestCampaignSelectorCampaignFilter(t *testing.T) {
	sel := NewCampaignSelector(Intern("nike.com"), Intern("spring"), Intern("summer"))
	mk := func(c string) Event {
		e := imp(1, 1, 0, "nike.com")
		e.Campaign = Intern(c)
		return e
	}
	if !sel.Relevant(mk("spring")) || !sel.Relevant(mk("summer")) {
		t.Fatal("listed campaigns must be relevant")
	}
	if sel.Relevant(mk("winter")) {
		t.Fatal("unlisted campaign must be irrelevant")
	}
}

func TestCampaignSelectorNeverMatchesConversions(t *testing.T) {
	// Conversions are public to the advertiser; F_A ∩ P = ∅ is the
	// sufficient condition for the stronger Thm. 1 guarantee, so the
	// selector must reject conversions even from the right site.
	sel := NewCampaignSelector(Intern("nike.com"))
	if sel.Relevant(conv(1, 1, 0, "nike.com", 70)) {
		t.Fatal("selector matched a conversion")
	}
}

func TestProductSelector(t *testing.T) {
	sel := ProductSelector{Advertiser: Intern("nike.com"), Product: Intern("shoe-3")}
	e := imp(1, 1, 0, "nike.com")
	e.Campaign = Intern("shoe-3")
	if !sel.Relevant(e) {
		t.Fatal("matching product impression rejected")
	}
	e.Campaign = Intern("shoe-4")
	if sel.Relevant(e) {
		t.Fatal("other product accepted")
	}
	c := conv(2, 1, 0, "nike.com", 1)
	c.Product = Intern("shoe-3")
	if sel.Relevant(c) {
		t.Fatal("conversion accepted")
	}
}

func TestWindowSelector(t *testing.T) {
	inner := NewCampaignSelector(Intern("nike.com"))
	sel := WindowSelector{Inner: inner, FirstDay: 10, LastDay: 20}
	in := imp(1, 1, 15, "nike.com")
	early := imp(2, 1, 9, "nike.com")
	late := imp(3, 1, 21, "nike.com")
	edge1 := imp(4, 1, 10, "nike.com")
	edge2 := imp(5, 1, 20, "nike.com")
	if !sel.Relevant(in) || !sel.Relevant(edge1) || !sel.Relevant(edge2) {
		t.Fatal("in-window impression rejected")
	}
	if sel.Relevant(early) || sel.Relevant(late) {
		t.Fatal("out-of-window impression accepted")
	}
}

func TestSelectorFunc(t *testing.T) {
	sel := SelectorFunc(func(ev Event) bool { return ev.Day == 3 })
	if !sel.Relevant(Event{Day: 3}) || sel.Relevant(Event{Day: 4}) {
		t.Fatal("SelectorFunc adapter broken")
	}
}

// The defining property of attribution functions is A(F) = A(F ∩ F_A);
// Select must therefore be idempotent.
func TestSelectIdempotentQuick(t *testing.T) {
	sel := NewCampaignSelector(Intern("nike.com"))
	f := func(ids []uint8) bool {
		evs := make([]Event, len(ids))
		for i, id := range ids {
			adv := "nike.com"
			if id%3 == 0 {
				adv = "adidas.com"
			}
			evs[i] = imp(EventID(id), 1, int(id), adv)
		}
		once := Select(evs, sel)
		twice := Select(once, sel)
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i].ID != twice[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
