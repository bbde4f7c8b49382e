package serve

import (
	"time"

	"repro/internal/events"
)

// ClockHeadAge is the queue clock's shed signal right now: how long the
// oldest admitted-but-unapplied batch has waited (0 when none is queued).
func (s *Server) ClockHeadAge() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock.headAge(time.Now().UnixNano())
}

// AdmitLive stands in for one handler admitting a batch of n live events
// and the service applying them: it pushes the batch onto the queue clock,
// then runs n live onAdmit calls for ev, and returns the batch's done
// channel. The server must be past its ready latch, with nothing in flight.
func (s *Server) AdmitLive(ev events.Event, n int) <-chan struct{} {
	s.mu.Lock()
	done := s.clock.push(time.Now().UnixNano(), n)
	s.mu.Unlock()
	for range n {
		s.onAdmit(ev, false)
	}
	return done
}

// ScanBody decodes a POST /v1/events body as the handler does, for a trace
// of durationDays days, and returns every event with its names, as if each
// were admitted: FuzzTraceLine holds ReadTrace to it.
func ScanBody(body []byte, durationDays int) ([]events.Event, error) {
	sc := newScanner()
	decoded, rerr := sc.scan(body, durationDays)
	if rerr != nil {
		return nil, rerr
	}
	evs := make([]events.Event, len(decoded))
	for i := range decoded {
		evs[i] = sc.withNames(i)
	}
	return evs, nil
}

// EventsSeeds are the POST /v1/events bodies both fuzz targets start
// from: FuzzIngestHTTP in the external test package and FuzzIngestDecode
// here.
var EventsSeeds = []string{
	`{"events":[{"id":1,"kind":"conversion","device":3,"day":0,"advertiser":"shop.example","product":"p0","value":5}]}`,
	`{"events":[{"id":2,"kind":"impression","device":3,"day":1,"advertiser":"shop.example","publisher":"news.example"}]}`,
	`{"events":[{"id":0,"kind":"conversion","device":0,"day":-1,"advertiser":"","value":-1e308}]}`,
	`{"events":[{"id":18446744073709551615,"kind":"conversion","device":18446744073709551615,"day":2147483647,"advertiser":"shop.example","product":"p0","value":1e308}]}`,
	`{"events": [`,
	`[]`,
}
