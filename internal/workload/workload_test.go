package workload

import (
	"math"
	"testing"
)

func baseConfig() Config {
	return Config{
		Nodes:        20,
		GenProb:      0.2,
		AvgLifetime:  7 * 86400,
		AvgSizeBits:  100e6,
		ZipfExponent: 1,
		Start:        0,
		End:          100 * 86400,
		Seed:         1,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := baseConfig().Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.GenProb = -0.1 },
		func(c *Config) { c.GenProb = 1.1 },
		func(c *Config) { c.AvgLifetime = 0 },
		func(c *Config) { c.AvgSizeBits = 0 },
		func(c *Config) { c.ZipfExponent = -1 },
		func(c *Config) { c.End = c.Start },
	}
	for i, mutate := range bad {
		c := baseConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateInvariants(t *testing.T) {
	w, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SortedCheck(); err != nil {
		t.Fatal(err)
	}
	if len(w.Data) == 0 {
		t.Fatal("no data generated")
	}
	if len(w.Queries) == 0 {
		t.Fatal("no queries generated")
	}
	cfg := w.Config
	for _, d := range w.Data {
		if d.Created < cfg.Start || d.Created >= cfg.End {
			t.Errorf("data created outside window: %+v", d)
		}
		life := d.Expires - d.Created
		if life < 0.5*cfg.AvgLifetime-1e-9 || life > 1.5*cfg.AvgLifetime+1e-9 {
			t.Errorf("lifetime %v outside [0.5,1.5]*T_L", life)
		}
		if d.SizeBits < 0.5*cfg.AvgSizeBits-1e-9 || d.SizeBits > 1.5*cfg.AvgSizeBits+1e-9 {
			t.Errorf("size %v outside [0.5,1.5]*s_avg", d.SizeBits)
		}
	}
	for _, q := range w.Queries {
		if got := q.Deadline - q.Issued; math.Abs(got-cfg.AvgLifetime/2) > 1e-9 {
			t.Errorf("constraint = %v, want T_L/2", got)
		}
		item, ok := w.Item(q.Data)
		if !ok {
			t.Fatalf("query for unknown data %d", q.Data)
		}
		if q.Requester == item.Source {
			t.Error("source queried its own data")
		}
		if !item.Live(q.Issued) {
			t.Errorf("query %d issued for non-live data", q.ID)
		}
	}
}

func TestGenerateAtMostOneLiveItemPerNode(t *testing.T) {
	w, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	// At every data creation instant, the source must not have another
	// live item.
	for _, d := range w.Data {
		for _, other := range w.Data {
			if other.ID == d.ID || other.Source != d.Source {
				continue
			}
			if other.Created < d.Created && other.Expires > d.Created {
				t.Fatalf("node %d generated %d while %d still live",
					d.Source, d.ID, other.ID)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Data) != len(b.Data) || len(a.Queries) != len(b.Queries) {
		t.Fatal("same seed produced different workloads")
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("data differs")
		}
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatal("queries differ")
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	cfg := baseConfig()
	a, _ := Generate(cfg)
	cfg.Seed = 2
	b, _ := Generate(cfg)
	if len(a.Data) == len(b.Data) {
		same := true
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical data")
		}
	}
}

// queriesPerData counts how many queries target each data item.
func queriesPerData(w *Workload) map[DataID]int {
	out := make(map[DataID]int, len(w.Data))
	for _, q := range w.Queries {
		out[q.Data]++
	}
	return out
}

func TestZipfQuerySkew(t *testing.T) {
	// With s=1, low-ID (early) live items should collect more queries
	// than high-ID ones on average. Compare first and last third.
	cfg := baseConfig()
	cfg.Nodes = 40
	cfg.End = 200 * 86400
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := queriesPerData(w)
	if len(counts) == 0 {
		t.Fatal("no queries")
	}
	// Per query epoch the rank-1 item is the live item with the smallest
	// ID. Aggregate: items should, on average, receive more queries while
	// they are the oldest live item. A blunt but robust check: total
	// queries follow the zipf head — the single most-queried item should
	// be well above the median.
	var max, sum int
	for _, c := range counts {
		if c > max {
			max = c
		}
		sum += c
	}
	mean := float64(sum) / float64(len(w.Data))
	if float64(max) < 2*mean {
		t.Errorf("query pattern too flat: max=%d mean=%v", max, mean)
	}
}

func TestLifetimeControlsDataVolume(t *testing.T) {
	// Fig. 9(a): with p_G fixed, the cumulative number of generated items
	// over a fixed window decreases as T_L grows.
	cfg := baseConfig()
	cfg.AvgLifetime = 12 * 3600
	short, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 1
	cfg.AvgLifetime = 30 * 86400
	long, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(short.Data) <= len(long.Data) {
		t.Errorf("short T_L generated %d items, long T_L %d; want short > long",
			len(short.Data), len(long.Data))
	}
}

func TestItemLookup(t *testing.T) {
	w, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Item(-1); ok {
		t.Error("negative ID found")
	}
	if _, ok := w.Item(DataID(len(w.Data))); ok {
		t.Error("out-of-range ID found")
	}
	item, ok := w.Item(0)
	if !ok || item.ID != 0 {
		t.Error("item 0 lookup failed")
	}
}

func TestMeanLiveItems(t *testing.T) {
	w, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean := w.MeanLiveItems(200)
	if mean <= 0 {
		t.Errorf("mean live items = %v", mean)
	}
	if mean > float64(w.Config.Nodes) {
		t.Errorf("mean live items %v exceeds node count (max one live item per node)", mean)
	}
}

func TestPerNodeInterests(t *testing.T) {
	cfg := baseConfig()
	cfg.Nodes = 40
	global, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PerNodeInterests = true
	personal, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := personal.SortedCheck(); err != nil {
		t.Fatal(err)
	}
	// Total query volume stays in the same ballpark (the pmf is merely
	// permuted per node).
	g, p := float64(len(global.Queries)), float64(len(personal.Queries))
	if p < 0.5*g || p > 2*g {
		t.Errorf("query volume changed drastically: %v vs %v", p, g)
	}
	// Demand concentration per item flattens: the single most-queried
	// item should hold a smaller share under personal interests.
	share := func(w *Workload) float64 {
		counts := queriesPerData(w)
		max, sum := 0, 0
		for _, c := range counts {
			if c > max {
				max = c
			}
			sum += c
		}
		if sum == 0 {
			return 0
		}
		return float64(max) / float64(sum)
	}
	if share(personal) >= share(global) {
		t.Errorf("personal interests did not flatten demand: %v vs %v",
			share(personal), share(global))
	}
}
