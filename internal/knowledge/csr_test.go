package knowledge_test

import (
	"testing"

	"dtncache/internal/knowledge"
	"dtncache/internal/trace"
)

// TestCSRMatchesDirectWeights pins the sparse weight matrix to its
// definition on every Table I preset: each stored entry must equal the
// path weight p.Weight(j, T) evaluated directly on the snapshot's own
// prepared paths, the diagonal must be 1, and each metric must be
// the exact mean of its off-diagonal row — the values the dense matrix
// held before the CSR conversion.
func TestCSRMatchesDirectWeights(t *testing.T) {
	for _, preset := range trace.Presets() {
		preset := preset
		t.Run(string(preset), func(t *testing.T) {
			tr, err := trace.GeneratePreset(preset, 1)
			if err != nil {
				t.Fatal(err)
			}
			params := knowledge.Params{Nodes: tr.Nodes, MetricT: 86400}
			b := knowledge.NewBuilder(params, tr.Contacts)
			s := b.Build(tr.Duration/2, nil, 1)

			n := tr.Nodes
			metrics := s.Metrics()
			nnz := 0
			for i := 0; i < n; i++ {
				p := s.Paths(trace.NodeID(i))
				var sum float64
				for j := 0; j < n; j++ {
					a, bb := trace.NodeID(i), trace.NodeID(j)
					want := 1.0
					if i != j {
						want = p.Weight(bb, params.MetricT)
						sum += want
						if want != 0 {
							nnz++
						}
					}
					if got := s.MetricWeight(a, bb); got != want {
						t.Fatalf("MetricWeight(%d,%d) = %g, want %g", i, j, got, want)
					}
					if got := s.Weight(a, bb, params.MetricT); got != want {
						t.Fatalf("Weight(%d,%d,T) = %g, want %g", i, j, got, want)
					}
				}
				if want := sum / float64(n-1); metrics[i] != want {
					t.Fatalf("metric %d = %g, want %g", i, metrics[i], want)
				}
			}
			if s.WeightNNZ() != nnz {
				t.Fatalf("WeightNNZ = %d, want %d", s.WeightNNZ(), nnz)
			}
			if nnz == 0 {
				t.Fatal("degenerate preset: no non-zero weights")
			}
		})
	}
}

// TestCSRIncrementalMatchesFull: an incremental build (clean rows
// copied between CSR slabs) must be bit-identical to a from-scratch
// build at the same time, entry for entry.
func TestCSRIncrementalMatchesFull(t *testing.T) {
	tr, err := trace.GeneratePreset(trace.Infocom05, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := knowledge.Params{Nodes: tr.Nodes, MetricT: 86400}
	b := knowledge.NewBuilder(params, tr.Contacts)

	base := b.Build(tr.Duration/3, nil, 1)
	incr := b.Build(tr.Duration/2, base, 2)
	full := b.Build(tr.Duration/2, nil, 2)

	n := tr.Nodes
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			gi := incr.MetricWeight(trace.NodeID(i), trace.NodeID(j))
			gf := full.MetricWeight(trace.NodeID(i), trace.NodeID(j))
			if gi != gf {
				t.Fatalf("MetricWeight(%d,%d): incremental %g != full %g", i, j, gi, gf)
			}
		}
	}
	im, fm := incr.Metrics(), full.Metrics()
	for i := range im {
		if im[i] != fm[i] {
			t.Fatalf("metric %d: incremental %g != full %g", i, im[i], fm[i])
		}
	}
	if incr.WeightNNZ() != full.WeightNNZ() {
		t.Fatalf("WeightNNZ: incremental %d != full %d", incr.WeightNNZ(), full.WeightNNZ())
	}
}
