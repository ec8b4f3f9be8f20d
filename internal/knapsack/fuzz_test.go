package knapsack

import (
	"sort"
	"testing"

	"dtncache/internal/mathx"
)

// fuzzItems derives a reproducible random item set from the fuzz
// arguments, mirroring the seeded-stream discipline of the simulator.
func fuzzItems(seed int64, n uint8, maxSize uint8) []Item {
	rng := mathx.NewRand(seed)
	count := int(n % 24)
	span := 1 + int(maxSize)%40
	items := make([]Item, count)
	for i := range items {
		items[i] = Item{
			ID:    i,
			Size:  1 + rng.Intn(span),
			Value: float64(rng.Intn(1000)) / 8,
		}
	}
	return items
}

// greedyBound packs items by descending value density (ties: smaller
// index) and returns the achieved value — a feasible solution, so the
// DP optimum must never score below it.
func greedyBound(items []Item, capacity int) float64 {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da := items[order[a]].Value / float64(items[order[a]].Size)
		db := items[order[b]].Value / float64(items[order[b]].Size)
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	var total float64
	left := capacity
	for _, i := range order {
		if items[i].Size <= left {
			left -= items[i].Size
			total += items[i].Value
		}
	}
	return total
}

// FuzzSolve checks the DP solver's invariants on random instances: the
// selection must fit the capacity, the reported value must equal the
// selection's value, the optimum must dominate the greedy bound, and
// selection and value bits must equal the full-table DP oracle's. It
// mirrors internal/trace/fuzz_test.go: properties, not goldens.
func FuzzSolve(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(10), uint16(20))
	f.Add(int64(2), uint8(0), uint8(1), uint16(0))
	f.Add(int64(3), uint8(23), uint8(39), uint16(511))
	f.Add(int64(-9), uint8(7), uint8(3), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, n, maxSize uint8, cap16 uint16) {
		items := fuzzItems(seed, n, maxSize)
		capacity := int(cap16 % 512)
		sel, val, err := Solve(items, capacity)
		if err != nil {
			t.Fatalf("valid instance rejected: %v", err)
		}
		const eps = 1e-9
		used, sum := 0, 0.0
		seen := make(map[int]bool)
		for _, i := range sel {
			if i < 0 || i >= len(items) {
				t.Fatalf("selection index %d out of range", i)
			}
			if seen[i] {
				t.Fatalf("index %d selected twice", i)
			}
			seen[i] = true
			used += items[i].Size
			sum += items[i].Value
		}
		if used > capacity {
			t.Fatalf("selection uses %d of capacity %d", used, capacity)
		}
		if diff := val - sum; diff > eps || diff < -eps {
			t.Fatalf("reported value %g != selection value %g", val, sum)
		}
		if bound := greedyBound(items, capacity); val+eps < bound {
			t.Fatalf("DP value %g below greedy bound %g", val, bound)
		}
		if d := matchesTable(items, capacity); d != "" {
			t.Fatalf("table oracle: %s", d)
		}
		// The solver must be deterministic: same instance, same answer.
		sel2, val2, err2 := Solve(items, capacity)
		if err2 != nil || val2 != val || len(sel2) != len(sel) {
			t.Fatalf("re-solve diverged: %v %g vs %g", err2, val2, val)
		}
		for i := range sel {
			if sel[i] != sel2[i] {
				t.Fatalf("re-solve changed selection at %d", i)
			}
		}
	})
}

// FuzzProbabilisticSelect checks Algorithm 1's wrapper: with any
// deterministic acceptor the accepted set must fit the capacity and
// contain no duplicates.
func FuzzProbabilisticSelect(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(10), uint16(30), uint8(1))
	f.Add(int64(4), uint8(12), uint8(5), uint16(60), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, maxSize uint8, cap16 uint16, mod uint8) {
		items := fuzzItems(seed, n, maxSize)
		capacity := int(cap16 % 512)
		m := 1 + int(mod)%4
		accept := func(it Item) bool { return it.ID%m != m-1 }
		sel, err := ProbabilisticSelect(nil, items, capacity, accept)
		if err != nil {
			t.Fatalf("valid instance rejected: %v", err)
		}
		used := 0
		seen := make(map[int]bool)
		for _, i := range sel {
			if i < 0 || i >= len(items) {
				t.Fatalf("selection index %d out of range", i)
			}
			if seen[i] {
				t.Fatalf("index %d selected twice", i)
			}
			seen[i] = true
			if !accept(items[i]) {
				t.Fatalf("rejected item %d was selected", i)
			}
			used += items[i].Size
		}
		if used > capacity {
			t.Fatalf("selection uses %d of capacity %d", used, capacity)
		}
	})
}
