package scheme

import (
	"math"
	"slices"
	"testing"

	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// storeOps reads a fuzz input one byte at a time; an exhausted input
// reads as zeros.
type storeOps struct{ b []byte }

func (o *storeOps) next() byte {
	if len(o.b) == 0 {
		return 0
	}
	c := o.b[0]
	o.b = o.b[1:]
	return c
}

// fuzzNCLs are the NCL indexes a fuzzed broadcast copy may carry: both
// sides of every 64-bit word boundary, and values no int32 tag holds.
var fuzzNCLs = []int{0, 1, 5, 63, 64, 65, 69, 127, 128, 200, -1, -7, math.MaxInt32, math.MaxInt32 + 1}

// inSet is the naive membership test of an NCLSet.
func inSet(m *NCLSet, k int) bool {
	if k < 0 || k >= 64*len(m.Bits) {
		return m.Outside
	}
	return m.Bits[k/64]>>(k%64)&1 == 1
}

// FuzzQueryStore applies random sequences of carry, drop, mode switch,
// sweep and wipe operations to a Base and checks the store after each
// against a naive model: a slice of the carried copies in key order.
// ForEachGradient and ForEachBroadcast must visit exactly the
// ForEachQuery sequence filtered by mode and NCL set, also when the
// visitor drops the copy it is handed, and custody answers taken before
// an operation must stay right after it.
func FuzzQueryStore(f *testing.F) {
	// Carry a gradient copy, switch it to broadcast, iterate.
	f.Add([]byte{0, 0, 1, 5, 1, 2, 3, 0, 0, 6, 0, 1, 1, 255, 0})
	// Carry a broadcast copy homed at NCL 64, iterate a two-word set.
	f.Add([]byte{0, 0, 1, 5, 1, 9, 6, 0, 2, 0, 0, 1, 0})
	f.Add([]byte{0, 1, 3, 2, 1, 4, 2, 5, 0, 1, 3, 2, 1, 2, 0, 4, 1, 2, 1, 255, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 5, 3, 0, 0, 2, 0, 1, 6, 3, 2, 0, 0, 5, 0, 1, 170, 7, 1})
	f.Add([]byte{0, 2, 9, 1, 1, 8, 4, 0, 2, 9, 2, 1, 13, 4, 2, 2, 0, 5, 2, 2, 85, 99, 1, 3, 0, 40, 4, 2, 5, 2, 0})
	f.Fuzz(func(t *testing.T, input []byte) {
		const nodes = 3
		b := NewBase(&Env{N: nodes, Sim: sim.New(), W: &workload.Workload{}})
		model := make([][]*QueryCarry, nodes)
		find := func(n trace.NodeID, k queryKey) int {
			for i, qc := range model[n] {
				if qc.key() == k {
					return i
				}
			}
			return -1
		}
		ops := &storeOps{b: input}
		for steps := 0; len(ops.b) > 0 && steps < 200; steps++ {
			op, n := ops.next()%7, trace.NodeID(ops.next()%nodes)
			// A copy of a key drawn from a small space, so that operations
			// collide; it is fresh, carried nowhere.
			fresh := func() *QueryCarry {
				qc := &QueryCarry{
					Q:      workload.Query{ID: workload.QueryID(ops.next() % 8), Deadline: float64(1 + ops.next()%8)},
					Target: trace.NodeID(ops.next() % 3),
				}
				c := ops.next()
				qc.Broadcast, qc.NCL = c&1 == 1, fuzzNCLs[int(c>>1)%len(fuzzNCLs)]
				return qc
			}
			// pick returns one of n's carried copies, or a fresh copy.
			pick := func() *QueryCarry {
				if c := int(ops.next()); c < 2*len(model[n]) {
					return model[n][c/2]
				}
				return fresh()
			}
			held := b.QueryCursor(n)
			before := make([]Custody, len(model[n]))
			keys := append([]*QueryCarry(nil), model[n]...)
			for i, qc := range keys {
				before[i] = held.Custody(qc)
			}
			switch op {
			case 0, 1: // carry
				qc := fresh()
				b.CarryQuery(n, qc)
				if find(n, qc.key()) < 0 {
					model[n] = append(model[n], qc)
					slices.SortFunc(model[n], func(x, y *QueryCarry) int {
						switch {
						case x.key().less(y.key()):
							return -1
						case y.key().less(x.key()):
							return 1
						}
						return 0
					})
				}
			case 2: // drop, by key
				qc := pick()
				b.DropQuery(n, qc)
				if i := find(n, qc.key()); i >= 0 {
					model[n] = slices.Delete(model[n], i, i+1)
				}
			case 3: // mode switch: retags only n's own copy
				b.SetBroadcast(n, pick())
			case 4: // sweep
				now := float64(ops.next() % 9)
				b.SweepExpired(now)
				for m := range model {
					model[m] = slices.DeleteFunc(model[m], func(qc *QueryCarry) bool { return qc.Q.Deadline <= now })
				}
			case 5: // wipe
				b.DropNodeState(n)
				model[n] = nil
			case 6: // iterate, dropping the visited copies a mask picks
				set := &NCLSet{Bits: make([]uint64, ops.next()%3), Outside: ops.next()&1 == 1}
				for w := range set.Bits {
					set.Bits[w] = uint64(ops.next()) * 0x9e3779b97f4a7c15
				}
				drop := ops.next()
				var all []*QueryCarry
				b.ForEachQuery(n, func(qc *QueryCarry) { all = append(all, qc) })
				if !slices.Equal(all, model[n]) {
					t.Fatalf("node %d: ForEachQuery visits %d copies, model holds %d", n, len(all), len(model[n]))
				}
				var wantG, wantB []*QueryCarry
				for _, qc := range all {
					if !qc.Broadcast {
						wantG = append(wantG, qc)
					} else if inSet(set, qc.NCL) {
						wantB = append(wantB, qc)
					}
				}
				visit := func(got *[]*QueryCarry) func(*QueryCarry) {
					return func(qc *QueryCarry) {
						*got = append(*got, qc)
						if drop>>(len(*got)%8)&1 == 1 {
							b.DropQuery(n, qc)
							model[n] = slices.DeleteFunc(model[n], func(m *QueryCarry) bool { return m == qc })
						}
					}
				}
				var gotG, gotB []*QueryCarry
				b.ForEachGradient(n, visit(&gotG))
				if !slices.Equal(gotG, wantG) {
					t.Fatalf("node %d: ForEachGradient visited %d copies, want %d", n, len(gotG), len(wantG))
				}
				for _, qc := range wantB {
					if !slices.Contains(model[n], qc) {
						wantB = slices.DeleteFunc(wantB, func(m *QueryCarry) bool { return m == qc })
					}
				}
				b.ForEachBroadcast(n, set, visit(&gotB))
				if !slices.Equal(gotB, wantB) {
					t.Fatalf("node %d: ForEachBroadcast visited %d copies, want %d (set %x outside %v)",
						n, len(gotB), len(wantB), set.Bits, set.Outside)
				}
			}
			// Custody taken before the operation still answers right.
			for i, qc := range keys {
				if got, want := b.Carries(n, qc, before[i]), find(n, qc.key()) >= 0; got != want {
					t.Fatalf("node %d: Carries(%v) = %v after op %d, want %v", n, qc.key(), got, op, want)
				}
			}
			for m := range model {
				if got := b.Queries(trace.NodeID(m)); !slices.Equal(got, model[m]) {
					t.Fatalf("node %d: store holds %d copies, model %d", m, len(got), len(model[m]))
				}
				if got, want := b.CarriesBroadcast(trace.NodeID(m)),
					slices.ContainsFunc(model[m], func(qc *QueryCarry) bool { return qc.Broadcast }); got != want {
					t.Fatalf("node %d: CarriesBroadcast = %v, want %v", m, got, want)
				}
				cur := b.QueryCursor(trace.NodeID(m))
				for _, qc := range model[m] {
					if c := cur.Custody(qc); !b.Carries(trace.NodeID(m), qc, c) {
						t.Fatalf("node %d: fresh custody misses carried %v", m, qc.key())
					}
				}
			}
		}
	})
}
