package trace

import (
	"sort"
	"testing"
)

func smallCityConfig() CityConfig {
	cfg := CityDefaults(400, 20000)
	cfg.DurationSec = 2 * 86400
	return cfg
}

func TestGenerateCityValid(t *testing.T) {
	tr, err := GenerateCity(smallCityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes != 400 {
		t.Fatalf("nodes = %d", tr.Nodes)
	}
	n := len(tr.Contacts)
	if n < 20000/2 || n > 20000*2 {
		t.Fatalf("contact count %d far from target 20000", n)
	}
	// Every node pair must be valid and sorted — Validate checked inside
	// GenerateCity, so just confirm the stream order was already sorted
	// (SortContacts had nothing to reorder across starts).
	for i := 1; i < n; i++ {
		if tr.Contacts[i].Start < tr.Contacts[i-1].Start {
			t.Fatalf("contact %d out of order", i)
		}
	}
}

func TestGenerateCityDeterministic(t *testing.T) {
	a, err := GenerateCity(smallCityConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCity(smallCityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Contacts) != len(b.Contacts) {
		t.Fatalf("counts differ: %d vs %d", len(a.Contacts), len(b.Contacts))
	}
	for i := range a.Contacts {
		if a.Contacts[i] != b.Contacts[i] {
			t.Fatalf("contact %d differs: %+v vs %+v", i, a.Contacts[i], b.Contacts[i])
		}
	}
	c := smallCityConfig()
	c.Seed = 2
	d, err := GenerateCity(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Contacts) == len(a.Contacts) && d.Contacts[0] == a.Contacts[0] {
		t.Fatal("different seed produced the same first contact and count")
	}
}

// TestCityIsolatedCommunities checks InterProb=0 never bridges
// communities, the property the sparse-knowledge benchmarks rely on.
func TestCityIsolatedCommunities(t *testing.T) {
	cfg := smallCityConfig()
	cfg.InterProb = 0
	w := buildCityWorld(cfg)
	if w.communities() < 2 {
		t.Fatalf("only %d communities", w.communities())
	}
	comm := func(n NodeID) int {
		return sort.SearchInts(w.commOff, int(n)+1) - 1
	}
	tr, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Contacts {
		if comm(c.A) != comm(c.B) {
			t.Fatalf("contact %+v bridges communities %d and %d", c, comm(c.A), comm(c.B))
		}
	}
}

func TestCityDiurnalSkew(t *testing.T) {
	tr, err := GenerateCity(smallCityConfig())
	if err != nil {
		t.Fatal(err)
	}
	day, night := 0, 0
	for _, c := range tr.Contacts {
		h := int(c.Start) % 86400 / 3600
		if h >= 8 && h < 20 {
			day++
		} else {
			night++
		}
	}
	// Amplitude 0.8 means night intensity is 20% of day; day and night
	// spans are both 12h, so day should carry roughly 5x the contacts.
	if day < 3*night {
		t.Fatalf("diurnal skew too weak: day=%d night=%d", day, night)
	}
}

func TestCityConfigValidate(t *testing.T) {
	base := smallCityConfig()
	mutate := []func(*CityConfig){
		func(c *CityConfig) { c.Nodes = 1 },
		func(c *CityConfig) { c.DurationSec = 0 },
		func(c *CityConfig) { c.GranularitySec = -1 },
		func(c *CityConfig) { c.TargetContacts = 0 },
		func(c *CityConfig) { c.CommunityAlpha = 0 },
		func(c *CityConfig) { c.CommunityMin = 1 },
		func(c *CityConfig) { c.CommunityMax = c.CommunityMin - 1 },
		func(c *CityConfig) { c.InterProb = 1.5 },
		func(c *CityConfig) { c.ActivityAlpha = -1 },
		func(c *CityConfig) { c.ActivityMax = 1 },
		func(c *CityConfig) { c.DiurnalAmplitude = 2 },
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	for i, m := range mutate {
		c := base
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}
