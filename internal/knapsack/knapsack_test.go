package knapsack

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dtncache/internal/mathx"
)

func TestSolveValidation(t *testing.T) {
	if _, _, err := Solve([]Item{{Size: 0, Value: 1}}, 10); err != ErrBadItem {
		t.Errorf("zero size: got %v", err)
	}
	if _, _, err := Solve([]Item{{Size: 1, Value: -1}}, 10); err != ErrBadItem {
		t.Errorf("negative value: got %v", err)
	}
	if _, _, err := Solve(nil, -1); err != ErrBadCapacity {
		t.Errorf("negative capacity: got %v", err)
	}
}

func TestSolveTrivialCases(t *testing.T) {
	sel, v, err := Solve(nil, 10)
	if err != nil || sel != nil || v != 0 {
		t.Errorf("empty: %v %v %v", sel, v, err)
	}
	sel, v, err = Solve([]Item{{Size: 5, Value: 3}}, 0)
	if err != nil || sel != nil || v != 0 {
		t.Errorf("zero capacity: %v %v %v", sel, v, err)
	}
	sel, v, err = Solve([]Item{{Size: 5, Value: 3}}, 4)
	if err != nil || len(sel) != 0 || v != 0 {
		t.Errorf("too big: %v %v %v", sel, v, err)
	}
	sel, v, err = Solve([]Item{{Size: 5, Value: 3}}, 5)
	if err != nil || len(sel) != 1 || v != 3 {
		t.Errorf("exact fit: %v %v %v", sel, v, err)
	}
}

func TestSolveKnownInstance(t *testing.T) {
	// Classic instance: optimal is items 1 and 2 (values 100+120) at w=50.
	items := []Item{
		{ID: 0, Size: 10, Value: 60},
		{ID: 1, Size: 20, Value: 100},
		{ID: 2, Size: 30, Value: 120},
	}
	sel, v, err := Solve(items, 50)
	if err != nil {
		t.Fatal(err)
	}
	if v != 220 || len(sel) != 2 || sel[0] != 1 || sel[1] != 2 {
		t.Errorf("sel=%v v=%v, want [1 2] 220", sel, v)
	}
}

func TestSolveDeterministicOnTies(t *testing.T) {
	items := []Item{
		{Size: 5, Value: 10},
		{Size: 5, Value: 10},
	}
	for i := 0; i < 10; i++ {
		sel, v, err := Solve(items, 5)
		if err != nil {
			t.Fatal(err)
		}
		if v != 10 || len(sel) != 1 || sel[0] != 0 {
			t.Fatalf("tie-broken selection changed: %v %v", sel, v)
		}
	}
}

// bruteForce enumerates all subsets; only usable for small n.
func bruteForce(items []Item, capacity int) float64 {
	n := len(items)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		size, val := 0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				size += items[i].Size
				val += items[i].Value
			}
		}
		if size <= capacity && val > best {
			best = val
		}
	}
	return best
}

func TestSolveMatchesBruteForceProperty(t *testing.T) {
	f := func(sizes [8]uint8, values [8]uint8, cap16 uint8) bool {
		items := make([]Item, 0, 8)
		for i := 0; i < 8; i++ {
			items = append(items, Item{
				ID:    i,
				Size:  int(sizes[i]%20) + 1,
				Value: float64(values[i] % 50),
			})
		}
		capacity := int(cap16 % 60)
		sel, v, err := Solve(items, capacity)
		if err != nil {
			return false
		}
		// Selection must be feasible and match its claimed value.
		size, val := 0, 0.0
		for _, i := range sel {
			size += items[i].Size
			val += items[i].Value
		}
		if size > capacity || math.Abs(val-v) > 1e-9 {
			return false
		}
		return math.Abs(v-bruteForce(items, capacity)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// solveTable is the textbook full-table DP Solve replaced: one
// (n+1)×(capacity+1) value table, selection recovered by walking back
// through cells that differ from the row above. It is the oracle that
// pins the rolling-row solver bit for bit.
func solveTable(items []Item, capacity int) ([]int, float64) {
	n := len(items)
	if n == 0 || capacity == 0 {
		return nil, 0
	}
	rows := make([][]float64, n+1)
	rows[0] = make([]float64, capacity+1)
	for i := 1; i <= n; i++ {
		rows[i] = make([]float64, capacity+1)
		it := items[i-1]
		prev := rows[i-1]
		cur := rows[i]
		for w := 0; w <= capacity; w++ {
			cur[w] = prev[w]
			if it.Size <= w {
				if cand := prev[w-it.Size] + it.Value; cand > cur[w] {
					cur[w] = cand
				}
			}
		}
	}
	var sel []int
	w := capacity
	for i := n; i >= 1; i-- {
		if rows[i][w] != rows[i-1][w] {
			sel = append(sel, i-1)
			w -= items[i-1].Size
		}
	}
	sort.Ints(sel)
	return sel, rows[n][capacity]
}

// matchesTable reports how Solve's answer differs from the table
// oracle's, or "" when selection and value bits are identical.
func matchesTable(items []Item, capacity int) string {
	sel, val, err := Solve(items, capacity)
	if err != nil {
		return fmt.Sprintf("valid instance rejected: %v", err)
	}
	want, wantVal := solveTable(items, capacity)
	if math.Float64bits(val) != math.Float64bits(wantVal) {
		return fmt.Sprintf("value %v (bits %x), table %v (bits %x)",
			val, math.Float64bits(val), wantVal, math.Float64bits(wantVal))
	}
	if !slices.Equal(sel, want) {
		return fmt.Sprintf("selection %v, table %v", sel, want)
	}
	return ""
}

// TestSolveMatchesTableOracle checks the rolling-row solver against the
// full-table DP on random instances drawn from few sizes and values, so
// equal-value packings (ties) are common, interleaved across sizes so
// the pooled scratch is reused at every shape.
func TestSolveMatchesTableOracle(t *testing.T) {
	rng := mathx.NewRand(11)
	for trial := 0; trial < 2000; trial++ {
		items := make([]Item, rng.Intn(16))
		for i := range items {
			items[i] = Item{
				ID:    i,
				Size:  1 + rng.Intn(6),
				Value: float64(rng.Intn(4)) / 4,
			}
			if rng.Intn(8) == 0 {
				items[i].Value = rng.Float64() // an irrational-ish sum
			}
		}
		capacity := rng.Intn(40)
		if d := matchesTable(items, capacity); d != "" {
			t.Fatalf("trial %d (cap %d, items %v): %s", trial, capacity, items, d)
		}
	}
}

// probabilisticSelectRef is Algorithm 1 as ProbabilisticSelect ran it
// before its rounds reused scratch: fresh pool, order and accepted set
// every round, solved by the table oracle. It pins the pooled version's
// selections and acceptor call sequence.
func probabilisticSelectRef(items []Item, capacity int, accept Acceptor) []int {
	remaining := make([]int, len(items))
	for i := range remaining {
		remaining[i] = i
	}
	var chosen []int
	rounds := 0
	for len(remaining) > 0 && capacity >= minSize(items, remaining) {
		rounds++
		if rounds > maxRounds*len(items)+1 {
			break
		}
		pool := make([]Item, len(remaining))
		for i, idx := range remaining {
			pool[i] = items[idx]
			pool[i].ID = idx
		}
		sel, _ := solveTable(pool, capacity)
		if len(sel) == 0 {
			break
		}
		budget := 0
		for _, pi := range sel {
			budget += pool[pi].Size
		}
		order := make([]int, len(pool))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			if pool[order[a]].Value != pool[order[b]].Value {
				return pool[order[a]].Value > pool[order[b]].Value
			}
			return pool[order[a]].ID < pool[order[b]].ID
		})
		accepted := make(map[int]bool)
		for _, pi := range order {
			it := pool[pi]
			if it.Size > capacity || it.Size > budget {
				continue
			}
			if accept(items[it.ID]) {
				chosen = append(chosen, it.ID)
				capacity -= it.Size
				budget -= it.Size
				accepted[it.ID] = true
			}
		}
		if len(accepted) == 0 {
			continue
		}
		next := remaining[:0]
		for _, idx := range remaining {
			if !accepted[idx] {
				next = append(next, idx)
			}
		}
		remaining = next
	}
	sort.Ints(chosen)
	return chosen
}

// TestProbabilisticSelectMatchesReference runs Algorithm 1 and its
// reference with identically seeded Bernoulli acceptors (probability =
// utility, as the intentional scheme uses) on random instances with
// frequent utility ties, and requires the same selection and the same
// sequence of acceptor calls. One selection array is passed back on
// every trial behind a one-element prefix, as cache replacement reuses
// it, so the append contract is checked too.
func TestProbabilisticSelectMatchesReference(t *testing.T) {
	gen := mathx.NewRand(23)
	var buf []int
	for trial := 0; trial < 1000; trial++ {
		items := make([]Item, gen.Intn(14))
		for i := range items {
			items[i] = Item{ID: i, Size: 1 + gen.Intn(8), Value: float64(gen.Intn(5)) / 4}
		}
		capacity := gen.Intn(30)
		seed := gen.Int63()
		run := func(sel func(Acceptor) []int) ([]int, []int) {
			rng := mathx.NewRand(seed)
			var offered []int
			got := sel(func(it Item) bool {
				offered = append(offered, it.ID)
				return rng.Bernoulli(min(it.Value, 1))
			})
			return got, offered
		}
		got, gotOffers := run(func(a Acceptor) []int {
			sel, err := ProbabilisticSelect(append(buf[:0], -1), items, capacity, a)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if sel[0] != -1 {
				t.Fatalf("trial %d: the selection overwrote dst's prefix", trial)
			}
			buf = sel
			return sel[1:]
		})
		want, wantOffers := run(func(a Acceptor) []int { return probabilisticSelectRef(items, capacity, a) })
		if !slices.Equal(got, want) || !slices.Equal(gotOffers, wantOffers) {
			t.Fatalf("trial %d (cap %d, items %v): selected %v offers %v, reference %v offers %v",
				trial, capacity, items, got, gotOffers, want, wantOffers)
		}
	}
}

func TestProbabilisticSelectAlwaysAcceptEqualsSolve(t *testing.T) {
	items := []Item{
		{ID: 0, Size: 10, Value: 60},
		{ID: 1, Size: 20, Value: 100},
		{ID: 2, Size: 30, Value: 120},
		{ID: 3, Size: 15, Value: 10},
	}
	got, err := ProbabilisticSelect(nil, items, 50, func(Item) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Solve(items, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestProbabilisticSelectNeverAccept(t *testing.T) {
	items := []Item{{Size: 5, Value: 1}, {Size: 5, Value: 2}}
	got, err := ProbabilisticSelect(nil, items, 10, func(Item) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %v, want empty", got)
	}
}

func TestProbabilisticSelectRespectsCapacity(t *testing.T) {
	rng := mathx.NewRand(1)
	items := make([]Item, 12)
	for i := range items {
		items[i] = Item{ID: i, Size: 3 + i%5, Value: 0.2 + 0.05*float64(i)}
	}
	for trial := 0; trial < 50; trial++ {
		sel, err := ProbabilisticSelect(nil, items, 20, func(it Item) bool {
			return rng.Bernoulli(it.Value)
		})
		if err != nil {
			t.Fatal(err)
		}
		size := 0
		seen := make(map[int]bool)
		for _, i := range sel {
			if seen[i] {
				t.Fatal("item selected twice")
			}
			seen[i] = true
			size += items[i].Size
		}
		if size > 20 {
			t.Fatalf("capacity exceeded: %d", size)
		}
	}
}

func TestProbabilisticSelectGivesUnpopularDataAChance(t *testing.T) {
	// A popular big item and an unpopular small one competing for space:
	// over many trials the unpopular one must be selected sometimes
	// (non-negligible chance, the point of Algorithm 1), but less often
	// than the popular one.
	rng := mathx.NewRand(2)
	items := []Item{
		{ID: 0, Size: 10, Value: 0.9},
		{ID: 1, Size: 10, Value: 0.2},
	}
	popCount, unpopCount := 0, 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		sel, err := ProbabilisticSelect(nil, items, 10, func(it Item) bool {
			return rng.Bernoulli(it.Value)
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sel {
			if s == 0 {
				popCount++
			} else {
				unpopCount++
			}
		}
	}
	if unpopCount == 0 {
		t.Error("unpopular item never cached; Algorithm 1 should give it a chance")
	}
	if popCount <= unpopCount {
		t.Errorf("popular %d <= unpopular %d; prioritization broken", popCount, unpopCount)
	}
}

func TestProbabilisticSelectBadCapacity(t *testing.T) {
	if _, err := ProbabilisticSelect(nil, nil, -1, func(Item) bool { return true }); err != ErrBadCapacity {
		t.Errorf("got %v", err)
	}
}

func BenchmarkSolve20Items600Cap(b *testing.B) {
	rng := mathx.NewRand(3)
	items := make([]Item, 20)
	for i := range items {
		items[i] = Item{ID: i, Size: 20 + rng.Intn(280), Value: rng.Float64()}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(items, 600); err != nil {
			b.Fatal(err)
		}
	}
}
