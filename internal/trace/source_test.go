package trace

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func drainSource(t *testing.T, src ContactSource) []Contact {
	t.Helper()
	var out []Contact
	for {
		c, err := src.NextContact()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
}

func TestSliceSource(t *testing.T) {
	cs := []Contact{{A: 0, B: 1, Start: 1, End: 2}, {A: 1, B: 2, Start: 3, End: 4}}
	got := drainSource(t, NewSliceSource(cs))
	if len(got) != 2 || got[0] != cs[0] || got[1] != cs[1] {
		t.Fatalf("got %+v", got)
	}
	s := NewSliceSource(nil)
	if _, err := s.NextContact(); err != io.EOF {
		t.Fatalf("empty source: %v", err)
	}
}

func TestMergeSourceRejectsUnsorted(t *testing.T) {
	raw := []Contact{{A: 0, B: 1, Start: 5, End: 6}, {A: 0, B: 2, Start: 1, End: 2}}
	ms := NewMergeSource(NewSliceSource(raw))
	if _, err := ms.NextContact(); err == nil ||
		!strings.Contains(err.Error(), "start 1 before previous start 5") {
		t.Fatalf("unsorted accepted: %v", err)
	}
	if _, err := ms.NextContact(); err == nil {
		t.Fatal("error not sticky")
	}
}

type failSource struct {
	n   int
	err error
}

func (f *failSource) NextContact() (Contact, error) {
	if f.n == 0 {
		return Contact{}, f.err
	}
	f.n--
	return Contact{A: 0, B: 1, Start: float64(10 - f.n), End: float64(20-f.n) + 10}, nil
}

func TestMergeSourcePropagatesError(t *testing.T) {
	boom := errors.New("boom")
	ms := NewMergeSource(&failSource{n: 1, err: boom})
	if _, err := ms.NextContact(); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}
