package knowledge_test

import (
	"errors"
	"io"
	"testing"

	"dtncache/internal/knowledge"
	"dtncache/internal/trace"
	"dtncache/internal/trace/tracetest"
)

// compareSnapshots asserts bitwise equality of everything schemes read.
func compareSnapshots(t *testing.T, want, got *knowledge.Snapshot, n int, label string) {
	t.Helper()
	wm, gm := want.Metrics(), got.Metrics()
	for i := range wm {
		if wm[i] != gm[i] {
			t.Fatalf("%s: metric %d = %g, want %g", label, i, gm[i], wm[i])
		}
	}
	if want.WeightNNZ() != got.WeightNNZ() {
		t.Fatalf("%s: nnz %d, want %d", label, got.WeightNNZ(), want.WeightNNZ())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w := want.MetricWeight(trace.NodeID(i), trace.NodeID(j))
			g := got.MetricWeight(trace.NodeID(i), trace.NodeID(j))
			if w != g {
				t.Fatalf("%s: MetricWeight(%d,%d) = %g, want %g", label, i, j, g, w)
			}
		}
	}
}

// TestStreamProviderMatchesMaterialized: every provider snapshot must
// be bit-identical to Builder.Build's full recompute over the contacts
// it counts — the reference merge of the raw list for a stream
// provider, the raw list itself for NewProvider — including when an
// out-of-order time forces the provider's fold to reopen its source.
func TestStreamProviderMatchesMaterialized(t *testing.T) {
	tr, err := trace.GeneratePreset(trace.Infocom05, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The preset has no same-pair overlaps; add one to every third
	// contact so merged and raw counts differ.
	for i, n := 0, len(tr.Contacts); i < n; i += 3 {
		c := tr.Contacts[i]
		tr.Contacts = append(tr.Contacts, trace.Contact{A: c.A, B: c.B, Start: (c.Start + c.End) / 2, End: c.End + 60})
	}
	tr.SortContacts()
	params := knowledge.Params{Nodes: tr.Nodes, MetricT: 86400}
	merged := tracetest.ReferenceMerge(tr.Contacts)
	if len(merged) == len(tr.Contacts) {
		t.Fatal("degenerate fixture: no overlapping contacts to merge")
	}

	for _, tc := range []struct {
		name     string
		pr       *knowledge.Provider
		contacts []trace.Contact
	}{
		{"stream", knowledge.NewStreamProvider(params, func() (trace.ContactSource, error) {
			return trace.NewSliceSource(tr.Contacts), nil
		}), merged},
		{"raw", knowledge.NewProvider(params, tr.Contacts), tr.Contacts},
	} {
		ref := knowledge.NewBuilder(params, tc.contacts)
		// Forward walk, then a rewind to an earlier uncached time, then
		// forward again.
		times := []float64{tr.Duration / 4, tr.Duration / 2, tr.Duration / 3, tr.Duration * 0.9}
		for i, at := range times {
			compareSnapshots(t, ref.Build(at, i+1), tc.pr.At(at), tr.Nodes, tc.name)
		}
		compareSnapshots(t, ref.Build(0, 0), tc.pr.Empty(), tr.Nodes, tc.name+" empty")
		if err := tc.pr.StreamErr(); err != nil {
			t.Fatal(err)
		}
	}
}

// failingSource yields nothing but an error.
type failingSource struct{ err error }

func (f *failingSource) NextContact() (trace.Contact, error) { return trace.Contact{}, f.err }

// TestStreamProviderStickyError: a source error must surface through
// StreamErr and stay sticky.
func TestStreamProviderStickyError(t *testing.T) {
	boom := errors.New("bad stream")
	pr := knowledge.NewStreamProvider(knowledge.Params{Nodes: 4, MetricT: 100},
		func() (trace.ContactSource, error) { return &failingSource{err: boom}, nil })
	_ = pr.At(10)
	if !errors.Is(pr.StreamErr(), boom) {
		t.Fatalf("StreamErr = %v, want %v", pr.StreamErr(), boom)
	}
	_ = pr.At(20)
	if !errors.Is(pr.StreamErr(), boom) {
		t.Fatal("StreamErr not sticky")
	}
}

// TestStreamProviderOpenError: a failing opener is also sticky.
func TestStreamProviderOpenError(t *testing.T) {
	boom := errors.New("cannot open")
	pr := knowledge.NewStreamProvider(knowledge.Params{Nodes: 4, MetricT: 100},
		func() (trace.ContactSource, error) { return nil, boom })
	_ = pr.At(10)
	if !errors.Is(pr.StreamErr(), boom) {
		t.Fatalf("StreamErr = %v, want %v", pr.StreamErr(), boom)
	}
}

// eofSource is an empty source.
type eofSource struct{}

func (eofSource) NextContact() (trace.Contact, error) { return trace.Contact{}, io.EOF }

// TestStreamProviderEmptySource: an empty stream is a valid (edgeless)
// knowledge pipeline, not an error.
func TestStreamProviderEmptySource(t *testing.T) {
	pr := knowledge.NewStreamProvider(knowledge.Params{Nodes: 4, MetricT: 100},
		func() (trace.ContactSource, error) { return eofSource{}, nil })
	s := pr.At(10)
	if err := pr.StreamErr(); err != nil {
		t.Fatal(err)
	}
	if s.WeightNNZ() != 0 {
		t.Fatalf("nnz = %d, want 0", s.WeightNNZ())
	}
}
