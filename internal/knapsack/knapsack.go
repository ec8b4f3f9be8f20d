// Package knapsack implements the 0/1 knapsack machinery behind the
// paper's cache-replacement formulation (Eq. 7) and the probabilistic
// data-selection loop of Algorithm 1.
//
// Cache replacement between two caching nodes pools their cached items
// and lets the node with the higher NCL weight solve a knapsack over the
// pool (utilities as values, data sizes as weights, its buffer as
// capacity); the second node then solves the same problem over the
// remainder. Algorithm 1 wraps the solver with per-item Bernoulli
// acceptance so less-popular data keeps a non-negligible chance of
// staying cached somewhere.
//
//dtn:determinism
package knapsack

import (
	"cmp"
	"errors"
	"slices"
	"sync"
)

// Item is one candidate data item.
type Item struct {
	// ID is the caller's identifier, echoed back in selections.
	ID int
	// Size is the item size in capacity units (>= 1). The paper solves
	// the DP over bytes; callers typically quantize to megabits to keep
	// the table small.
	Size int
	// Value is the caching utility (the popularity w_i of Eq. 6 for the
	// paper's scheme); must be >= 0.
	Value float64
}

// Errors returned by the solver.
var (
	ErrBadItem     = errors.New("knapsack: item needs Size >= 1 and Value >= 0")
	ErrBadCapacity = errors.New("knapsack: capacity must be >= 0")
)

// Solve returns the indices (into items) of a maximum-value subset whose
// total size is at most capacity, along with the achieved value. It runs
// the standard O(n*capacity) dynamic program; ties prefer
// lexicographically smaller index sets so results are deterministic.
//
// The DP keeps one value row, updated in place from the top capacity
// down so every read still sees the previous item's row, plus one
// "took" bit per (item, capacity) cell for selection recovery. Both are
// pooled scratch, so a steady stream of solves allocates only the
// returned selection.
func Solve(items []Item, capacity int) ([]int, float64, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.solve(nil, items, capacity)
}

// solve is Solve on sc's DP buffers; it appends the selection to dst.
func (sc *scratch) solve(dst []int, items []Item, capacity int) ([]int, float64, error) {
	if capacity < 0 {
		return nil, 0, ErrBadCapacity
	}
	for _, it := range items {
		if it.Size < 1 || it.Value < 0 {
			return nil, 0, ErrBadItem
		}
	}
	n := len(items)
	if n == 0 || capacity == 0 {
		return dst, 0, nil
	}
	width := capacity + 1
	sc.vals = zeroed(sc.vals, width)
	sc.took = zeroed(sc.took, (n*width+63)>>6)
	row, took := sc.vals, sc.took
	// Strict improvement on the take-branch makes ties prefer not taking
	// later items, so the selected index set is deterministic. A took bit
	// is set exactly where a full (n+1)×(capacity+1) table would have
	// rows[i][w] != rows[i-1][w].
	for i, it := range items {
		base := i * width
		for w := capacity; w >= it.Size; w-- {
			if cand := row[w-it.Size] + it.Value; cand > row[w] {
				row[w] = cand
				bit := base + w
				took[bit>>6] |= 1 << (bit & 63)
			}
		}
	}
	first := len(dst)
	w := capacity
	for i := n - 1; i >= 0; i-- {
		if bit := i*width + w; took[bit>>6]&(1<<(bit&63)) != 0 {
			dst = append(dst, i)
			w -= items[i].Size
		}
	}
	slices.Reverse(dst[first:])
	return dst, row[capacity], nil
}

// scratch is the reusable state of Solve's DP (vals, took) and of
// ProbabilisticSelect's rounds (the rest).
type scratch struct {
	vals []float64
	took []uint64

	remaining []int  // indices into items still in the pool, ascending
	pool      []Item // the round's pool; ID = index into items
	sel       []int  // the round's DP selection, indices into pool
	order     []int  // the round's offer order, indices into pool
	accepted  []bool // per index into items
}

// scratchPool recycles scratch across calls; concurrent calls (parallel
// sweep cells) each take their own.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// zeroed returns s resized to n zero elements.
func zeroed[T float64 | uint64 | bool](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Acceptor decides whether a DP-selected item is actually cached; the
// paper's Algorithm 1 uses a Bernoulli experiment with probability equal
// to the item's utility.
type Acceptor func(Item) bool

// maxRounds bounds Algorithm 1's outer loop. The paper iterates until the
// buffer is full or the pool is empty; with Bernoulli acceptance that
// terminates only in expectation, so after maxRounds*len(items)+1 empty
// rounds we stop (callers treat remaining capacity as intentionally
// unused).
const maxRounds = 4

// ProbabilisticSelect implements Algorithm 1. Each outer round it solves
// the knapsack over the remaining pool to obtain V_max — the total size
// the optimal packing would occupy — and then offers *every* remaining
// item in descending-utility order, accepting each via the Acceptor
// (Bernoulli with probability u_i in the paper) as long as it fits both
// the remaining capacity and the V_max budget. Rounds repeat so capacity
// freed by rejections can be refilled, until the pool is exhausted,
// nothing fits, or the bounded retry budget runs out.
//
// This keeps popular (high-utility) data prioritized while leaving
// less-popular data a non-negligible chance of being cached, which is the
// point of Sec. V-D.3.
//
// It appends the ascending indices into items of the accepted set to
// dst and returns the extended slice. Its round scratch is pooled, so
// a caller that passes back its previous selection's array, as cache
// replacement does on every exchange, allocates nothing.
func ProbabilisticSelect(dst []int, items []Item, capacity int, accept Acceptor) ([]int, error) {
	if capacity < 0 {
		return dst, ErrBadCapacity
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	remaining := sc.remaining[:0]
	for i := range items {
		remaining = append(remaining, i)
	}
	sc.accepted = zeroed(sc.accepted, len(items))
	first := len(dst)
	rounds := 0
	for len(remaining) > 0 && capacity >= minSize(items, remaining) {
		rounds++
		if rounds > maxRounds*len(items)+1 {
			break
		}
		pool := sc.pool[:0]
		for _, idx := range remaining {
			it := items[idx]
			it.ID = idx // track original index through the DP
			pool = append(pool, it)
		}
		sc.pool = pool
		sel, _, err := sc.solve(sc.sel[:0], pool, capacity)
		if err != nil {
			return dst[:first], err
		}
		sc.sel = sel
		if len(sel) == 0 {
			break
		}
		budget := 0 // V_max: total size of the DP-optimal packing
		for _, pi := range sel {
			budget += pool[pi].Size
		}
		// Offer the whole pool in descending utility (ties: ascending
		// original index).
		order := sc.order[:0]
		for i := range pool {
			order = append(order, i)
		}
		sc.order = order
		slices.SortFunc(order, func(a, b int) int {
			if pool[a].Value != pool[b].Value {
				if pool[a].Value > pool[b].Value {
					return -1
				}
				return 1
			}
			return cmp.Compare(pool[a].ID, pool[b].ID)
		})
		nAccepted := 0
		for _, pi := range order {
			it := pool[pi]
			if it.Size > capacity || it.Size > budget {
				continue
			}
			if accept(items[it.ID]) {
				dst = append(dst, it.ID)
				capacity -= it.Size
				budget -= it.Size
				sc.accepted[it.ID] = true
				nAccepted++
			}
		}
		if nAccepted == 0 {
			continue // all Bernoulli-rejected this round; retry
		}
		next := remaining[:0]
		for _, idx := range remaining {
			if !sc.accepted[idx] {
				next = append(next, idx)
			}
		}
		remaining = next
	}
	sc.remaining = remaining
	slices.Sort(dst[first:])
	return dst, nil
}

func minSize(items []Item, idx []int) int {
	m := int(^uint(0) >> 1)
	for _, i := range idx {
		if items[i].Size < m {
			m = items[i].Size
		}
	}
	return m
}
