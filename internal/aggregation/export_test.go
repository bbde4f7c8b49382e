package aggregation

import "repro/internal/core"

// ConsumedNonces reports how many report nonces are currently tracked as
// consumed (retired nonces are not counted).
func (s *Service) ConsumedNonces() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// Watermark returns the current retirement horizon: nonces at or below it
// are rejected without consulting the consumed set.
func (s *Service) Watermark() core.Nonce {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}
