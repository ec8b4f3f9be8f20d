package knowledge

// Footprint exposes Snapshot.footprint to the external tests.
func Footprint(s *Snapshot) int { return s.footprint() }
