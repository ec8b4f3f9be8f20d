package provenance

// Footprint exposes Tracer.footprint to the external tests.
func Footprint(t *Tracer) int { return t.footprint() }
