package stream

// FullSnapshot hands the external test package the service's complete state
// as one payload, with the generation number of the WAL segment in use — at
// PointDeltaCaptured, what a tick that wrote bases instead of deltas put on
// disk.
func (s *Service) FullSnapshot() (gen uint64, payload []byte, err error) {
	payload, err = s.capture(false)
	return s.nextGen - 1, payload, err
}
