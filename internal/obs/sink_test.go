package obs

import (
	"strings"
	"testing"
)

// closeBuffer records whether Close reached the underlying writer.
type closeBuffer struct {
	strings.Builder
	closed bool
}

func (c *closeBuffer) Close() error {
	c.closed = true
	return nil
}

func TestStreamSink(t *testing.T) {
	var cb closeBuffer
	s := NewStreamSink(&cb)
	s.WriteLine([]byte(`{"k":"a"}`))
	s.WriteLine([]byte(`{"k":"b"}`))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := cb.String(); got != "{\"k\":\"a\"}\n{\"k\":\"b\"}\n" {
		t.Errorf("stream wrote %q", got)
	}
	if !cb.closed {
		t.Error("underlying closer not closed")
	}
}

func TestRingSinkWrapAndDump(t *testing.T) {
	r := NewRingSink(3)
	for _, l := range []string{"1", "2", "3", "4", "5"} {
		r.WriteLine([]byte(l))
	}
	if r.Len() != 3 {
		t.Errorf("len = %d, want 3", r.Len())
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", r.Dropped())
	}
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "3\n4\n5\n" {
		t.Errorf("dump = %q, want oldest-first tail 3..5", sb.String())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRingSinkUnderfilled(t *testing.T) {
	r := NewRingSink(8)
	r.WriteLine([]byte("only"))
	if r.Len() != 1 || r.Dropped() != 0 {
		t.Errorf("len=%d dropped=%d, want 1/0", r.Len(), r.Dropped())
	}
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "only\n" {
		t.Errorf("dump = %q", sb.String())
	}
	// n < 1 clamps to a 1-slot ring.
	tiny := NewRingSink(0)
	tiny.WriteLine([]byte("a"))
	tiny.WriteLine([]byte("b"))
	if tiny.Len() != 1 {
		t.Errorf("clamped ring len = %d, want 1", tiny.Len())
	}
}

func TestRingSinkDoesNotRetainCallerSlice(t *testing.T) {
	// The Sink contract: WriteLine must not retain the slice, because
	// the recorder reuses its encode buffer.
	r := NewRingSink(2)
	buf := []byte("first")
	r.WriteLine(buf)
	copy(buf, "XXXXX") // recorder reusing its scratch
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "first\n" {
		t.Errorf("ring retained the caller's slice: dump = %q", sb.String())
	}
}

func TestSampleSinkKeepsFirstLine(t *testing.T) {
	var cb closeBuffer
	s := NewSampleSink(NewStreamSink(&cb), 3)
	for _, l := range []string{"manifest", "e1", "e2", "e3", "e4", "e5"} {
		s.WriteLine([]byte(l))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Every 3rd starting at line 0: manifest, e3. The manifest (first
	// line) is always kept.
	if cb.String() != "manifest\ne3\n" {
		t.Errorf("sampled = %q, want manifest+e3", cb.String())
	}
	if !cb.closed {
		t.Error("sample sink Close did not propagate")
	}
	// every < 1 clamps to pass-through.
	pass := NewSampleSink(NewRingSink(4), 0)
	pass.WriteLine([]byte("x"))
	pass.WriteLine([]byte("y"))
}
