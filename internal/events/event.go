// Package events implements the paper's data model (§4.1.1): impression and
// conversion events collected by user devices, grouped into device-epoch
// records x = (d, e, F), and assembled into the database D that queries
// operate on. It also models the per-querier public-event domain P and the
// relevant-event selectors F_A used by attribution functions.
package events

import "fmt"

// DeviceID identifies a user device d ∈ D. In a browser deployment this is
// implicit (the code runs on the device); the simulator carries it
// explicitly so one process can host the whole device population.
type DeviceID uint64

// Epoch identifies a time epoch e ∈ E. Epochs are contiguous, fixed-length
// windows of days (weeks or months in the paper); the on-device database is
// partitioned by epoch and privacy filters are maintained per epoch.
type Epoch int32

// EventID uniquely identifies an event within the simulation.
type EventID uint64

// Kind distinguishes impressions from conversions.
type Kind uint8

const (
	// KindImpression marks an ad view or click recorded on a publisher
	// site.
	KindImpression Kind = iota
	// KindConversion marks a purchase, sign-up or cart addition recorded
	// on an advertiser site.
	KindConversion
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindImpression:
		return "impression"
	case KindConversion:
		return "conversion"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is a single element of I ∪ C. One struct covers both domains; Kind
// selects which fields are meaningful. Keeping a single type lets a
// device-epoch record F ⊂ I ∪ C be an ordinary slice. Names are symbols
// (sym.go), so an Event is 56 bytes and holds no pointers.
type Event struct {
	ID     EventID
	Kind   Kind
	Device DeviceID
	// Day is the absolute day index since the start of the simulation.
	// Attribution logics that depend on recency (last-touch, first-touch)
	// order events by (Day, ID).
	Day int
	// Publisher is the site on which an impression was shown
	// (impressions only).
	Publisher Site
	// Advertiser is the advertiser the event concerns: the advertiser
	// whose ad was shown (impressions) or on whose site the conversion
	// happened (conversions).
	Advertiser Site
	// Campaign identifies the ad campaign (impressions only).
	Campaign Sym
	// Product identifies the product bought (conversions only).
	Product Sym
	// Value is the conversion value in currency units (conversions only).
	Value float64
}

// IsImpression reports whether the event belongs to the impression domain I.
func (ev Event) IsImpression() bool { return ev.Kind == KindImpression }

// IsConversion reports whether the event belongs to the conversion domain C.
func (ev Event) IsConversion() bool { return ev.Kind == KindConversion }

// Before reports whether ev happened strictly before other, breaking day
// ties by event ID so that ordering is total and deterministic.
func (ev Event) Before(other Event) bool {
	if ev.Day != other.Day {
		return ev.Day < other.Day
	}
	return ev.ID < other.ID
}

// Stamp is an event's place in (Day, ID) admission order: what a device's
// dedupe cursor and a late-drop mark remember of its newest admission.
type Stamp struct {
	Day int
	ID  EventID
}

// Before reports whether s precedes ev in (Day, ID) order: whether a device
// whose newest admission is at s may still admit ev.
func (s Stamp) Before(ev Event) bool {
	return s.Day < ev.Day || (s.Day == ev.Day && s.ID < ev.ID)
}

// EpochOfDay maps an absolute day index to its epoch, for a given epoch
// length in days. It panics if epochDays is not positive.
func EpochOfDay(day, epochDays int) Epoch {
	if epochDays <= 0 {
		panic("events: EpochOfDay with non-positive epoch length")
	}
	if day < 0 {
		// Negative days belong to negative epochs; floor division.
		return Epoch((day - epochDays + 1) / epochDays)
	}
	return Epoch(day / epochDays)
}

// EpochWindow returns the inclusive epoch range [first, last] covering the
// attribution window of windowDays days that ends on (and includes)
// conversionDay, under the given epoch length. This is the set of epochs E
// the attribution function searches for relevant impressions.
func EpochWindow(conversionDay, windowDays, epochDays int) (first, last Epoch) {
	if windowDays <= 0 {
		panic("events: EpochWindow with non-positive window")
	}
	last = EpochOfDay(conversionDay, epochDays)
	first = EpochOfDay(conversionDay-windowDays+1, epochDays)
	return first, last
}

// EpochsIn enumerates the epochs in [first, last] in increasing order.
func EpochsIn(first, last Epoch) []Epoch {
	if last < first {
		return nil
	}
	out := make([]Epoch, 0, int(last-first)+1)
	for e := first; e <= last; e++ {
		out = append(out, e)
	}
	return out
}
