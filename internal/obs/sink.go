package obs

import (
	"bufio"
	"io"
)

// Sink receives encoded NDJSON trace lines. WriteLine is handed the
// line without a trailing newline and must not retain the slice — the
// recorder reuses its encode buffer.
type Sink interface {
	WriteLine(line []byte)
	// Close flushes buffered output and releases resources.
	Close() error
}

// StreamSink writes every line straight through a buffered writer: the
// full-stream trace of a run.
type StreamSink struct {
	bw *bufio.Writer
	c  io.Closer // underlying closer when the writer is also a Closer
}

// NewStreamSink wraps w. If w is also an io.Closer it is closed by
// Close (after the flush).
func NewStreamSink(w io.Writer) *StreamSink {
	s := &StreamSink{bw: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// WriteLine implements Sink.
func (s *StreamSink) WriteLine(line []byte) {
	_, _ = s.bw.Write(line)
	_ = s.bw.WriteByte('\n')
}

// Close implements Sink.
func (s *StreamSink) Close() error {
	err := s.bw.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RingSink is the flight recorder: a bounded ring keeping the last N
// lines. Slots reuse their backing arrays, so a saturated ring stops
// allocating. Dump writes the retained tail in arrival order —
// typically on error or at Stop.
type RingSink struct {
	lines [][]byte
	next  int
	full  bool
	seen  uint64 // total lines offered, including overwritten ones
}

// NewRingSink creates a ring holding the last n lines (n < 1 is
// clamped to 1).
func NewRingSink(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{lines: make([][]byte, n)}
}

// WriteLine implements Sink.
func (r *RingSink) WriteLine(line []byte) {
	r.lines[r.next] = append(r.lines[r.next][:0], line...)
	r.next++
	r.seen++
	if r.next == len(r.lines) {
		r.next = 0
		r.full = true
	}
}

// Len returns the number of retained lines.
func (r *RingSink) Len() int {
	if r.full {
		return len(r.lines)
	}
	return r.next
}

// Dropped returns how many lines were overwritten (total seen minus
// retained).
func (r *RingSink) Dropped() uint64 {
	return r.seen - uint64(r.Len())
}

// Dump writes the retained lines, oldest first, each terminated by a
// newline.
func (r *RingSink) Dump(w io.Writer) error {
	start := 0
	if r.full {
		start = r.next
	}
	for i := 0; i < r.Len(); i++ {
		line := r.lines[(start+i)%len(r.lines)]
		if _, err := w.Write(line); err != nil {
			return err
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Sink (the ring holds no external resources).
func (r *RingSink) Close() error { return nil }

// SampleSink forwards every Nth line to the inner sink, a cheap way to
// trace a long run at reduced volume. The first line (the manifest) is
// always forwarded.
type SampleSink struct {
	inner Sink
	every uint64
	n     uint64
}

// NewSampleSink keeps one of every `every` lines (every < 1 clamps to
// 1, i.e. pass-through).
func NewSampleSink(inner Sink, every int) *SampleSink {
	if every < 1 {
		every = 1
	}
	return &SampleSink{inner: inner, every: uint64(every)}
}

// WriteLine implements Sink.
func (s *SampleSink) WriteLine(line []byte) {
	keep := s.n%s.every == 0
	s.n++
	if keep {
		s.inner.WriteLine(line)
	}
}

// Close implements Sink.
func (s *SampleSink) Close() error { return s.inner.Close() }
