package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
)

// The chunked binary trace format streams city-scale contact lists
// without materializing them. Layout (all integers little-endian):
//
//	magic       [6]byte  "DTNCHK"
//	version     uint16   currently 1
//	nameLen     uint16
//	name        [nameLen]byte
//	nodes       uint32   > 0
//	duration    float64  finite, > 0
//	granularity float64  finite, >= 0
//	chunk*                length-prefixed columnar chunks
//	trailer              a chunk with count == 0
//
// Each chunk is:
//
//	count      uint32   records in this chunk; 0 marks the trailer
//	payloadLen uint32   must equal count * 24
//	a          [count]uint32
//	b          [count]uint32
//	start      [count]float64
//	end        [count]float64
//
// The columnar payload keeps same-typed fields adjacent so a chunk
// decodes with four tight loops, and the explicit payload length lets a
// reader detect truncation mid-chunk instead of mis-parsing the tail.
// The trailer distinguishes a cleanly terminated stream from a file cut
// off at a chunk boundary. Records must be sorted by start time across
// the whole stream (the order Trace.Validate requires), which is what
// lets the simulator replay a stream without buffering it.

const (
	streamMagic   = "DTNCHK"
	streamVersion = 1

	// recordBytes is the per-record payload cost: u32 a + u32 b +
	// f64 start + f64 end.
	recordBytes = 24

	// maxChunkRecords bounds a single chunk so a corrupt count field
	// cannot make the reader allocate gigabytes. 1<<20 records is a
	// 24 MiB payload.
	maxChunkRecords = 1 << 20

	// defaultChunkRecords is the writer's flush threshold: 8192
	// records is a 192 KiB payload, comfortably above the bufio block
	// size and far below any memory concern.
	defaultChunkRecords = 8192
)

// StreamMeta is the chunked stream header: the Trace metadata without
// the contact slice. Duration is mandatory (a streaming reader cannot
// infer it from the last contact without reading everything first).
type StreamMeta struct {
	Name        string
	Nodes       int
	Duration    float64
	Granularity float64
}

// validate rejects headers the reader could not replay against.
func (m StreamMeta) validate() error {
	switch {
	case m.Nodes <= 0:
		return fmt.Errorf("trace: stream: %w", ErrNoNodes)
	case m.Nodes > math.MaxUint32:
		return fmt.Errorf("trace: stream: %d nodes exceed the uint32 header field", m.Nodes)
	case len(m.Name) > math.MaxUint16:
		return fmt.Errorf("trace: stream: name longer than %d bytes", math.MaxUint16)
	case math.IsNaN(m.Duration) || math.IsInf(m.Duration, 0) ||
		math.IsNaN(m.Granularity) || math.IsInf(m.Granularity, 0):
		return fmt.Errorf("trace: stream: %w", ErrNonFinite)
	case m.Duration <= 0:
		return fmt.Errorf("trace: stream: duration %g not positive", m.Duration)
	case m.Granularity < 0:
		return fmt.Errorf("trace: stream: negative granularity %g", m.Granularity)
	}
	return nil
}

// StreamWriter encodes a contact stream chunk by chunk. Contacts must
// be Added in nondecreasing start order; Close writes the trailer.
type StreamWriter struct {
	w         *bufio.Writer
	meta      StreamMeta
	buf       []Contact // pending records for the current chunk
	scratch   []byte    // encoded-chunk reuse buffer
	prevStart float64
	count     int64 // records written, for error context
	closed    bool
}

// NewStreamWriter writes the header and returns a writer for the
// contact stream described by meta.
func NewStreamWriter(w io.Writer, meta StreamMeta) (*StreamWriter, error) {
	if err := meta.validate(); err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(streamMagic); err != nil {
		return nil, fmt.Errorf("trace: stream: write header: %w", err)
	}
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], streamVersion)
	bw.Write(u16[:])
	binary.LittleEndian.PutUint16(u16[:], uint16(len(meta.Name)))
	bw.Write(u16[:])
	bw.WriteString(meta.Name)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(meta.Nodes))
	bw.Write(u32[:])
	var f64 [8]byte
	binary.LittleEndian.PutUint64(f64[:], math.Float64bits(meta.Duration))
	bw.Write(f64[:])
	binary.LittleEndian.PutUint64(f64[:], math.Float64bits(meta.Granularity))
	if _, err := bw.Write(f64[:]); err != nil {
		return nil, fmt.Errorf("trace: stream: write header: %w", err)
	}
	return &StreamWriter{
		w:         bw,
		meta:      meta,
		buf:       make([]Contact, 0, defaultChunkRecords),
		prevStart: math.Inf(-1),
	}, nil
}

// Add appends one contact to the stream, enforcing the same record
// invariants the reader checks so only replayable files are produced.
func (sw *StreamWriter) Add(c Contact) error {
	if sw.closed {
		return fmt.Errorf("trace: stream: write after Close")
	}
	if err := checkStreamRecord(sw.meta, c, sw.prevStart); err != nil {
		return fmt.Errorf("trace: stream: record %d: %w", sw.count, err)
	}
	sw.prevStart = c.Start
	sw.count++
	sw.buf = append(sw.buf, c)
	if len(sw.buf) >= defaultChunkRecords {
		return sw.flushChunk()
	}
	return nil
}

// Close flushes the final chunk and writes the trailer. The underlying
// io.Writer is not closed.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	if err := sw.flushChunk(); err != nil {
		return err
	}
	var hdr [8]byte // count == 0, payloadLen == 0
	if _, err := sw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: stream: write trailer: %w", err)
	}
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("trace: stream: flush: %w", err)
	}
	return nil
}

func (sw *StreamWriter) flushChunk() error {
	n := len(sw.buf)
	if n == 0 {
		return nil
	}
	need := 8 + n*recordBytes
	if cap(sw.scratch) < need {
		sw.scratch = make([]byte, need)
	}
	buf := sw.scratch[:need]
	binary.LittleEndian.PutUint32(buf[0:], uint32(n))
	binary.LittleEndian.PutUint32(buf[4:], uint32(n*recordBytes))
	aOff, bOff := 8, 8+4*n
	sOff, eOff := 8+8*n, 8+8*n+8*n
	for i, c := range sw.buf {
		binary.LittleEndian.PutUint32(buf[aOff+4*i:], uint32(c.A))
		binary.LittleEndian.PutUint32(buf[bOff+4*i:], uint32(c.B))
		binary.LittleEndian.PutUint64(buf[sOff+8*i:], math.Float64bits(c.Start))
		binary.LittleEndian.PutUint64(buf[eOff+8*i:], math.Float64bits(c.End))
	}
	sw.buf = sw.buf[:0]
	if _, err := sw.w.Write(buf); err != nil {
		return fmt.Errorf("trace: stream: write chunk: %w", err)
	}
	return nil
}

// checkStreamRecord applies CheckContact's shared hardening to binary
// records plus the stream-only invariants the header makes checkable:
// duration overruns and unsorted starts.
func checkStreamRecord(meta StreamMeta, c Contact, prevStart float64) error {
	if err := CheckContact(meta.Nodes, c); err != nil {
		return err
	}
	switch {
	case c.End > meta.Duration:
		return fmt.Errorf("contact end %g after trace duration %g", c.End, meta.Duration)
	case c.Start < prevStart:
		return fmt.Errorf("start %g before previous start %g", c.Start, prevStart)
	}
	return nil
}

// StreamReader decodes a chunked trace one contact at a time. It holds
// a single chunk in memory, so replaying a hundred-million-contact file
// costs a fixed few hundred kilobytes. The decoded chunk buffers are
// reused, and NextContact returns by value, so the steady state is
// allocation-free. The reader is a single-owner cursor, not a shared
// value: every NextContact advances its chunk state.
type StreamReader struct {
	r    *bufio.Reader
	meta StreamMeta

	// current decoded chunk, columnar; reused between chunks
	a, b       []NodeID
	start, end []float64
	payload    []byte // raw chunk payload, reused
	idx        int    // next record within the chunk

	chunk     int64 // 1-based chunk number, for error context
	record    int64 // records delivered so far
	prevStart float64
	done      bool
	err       error // sticky
}

// NewStreamReader parses the stream header. The reader does not take
// ownership of r; callers close the underlying file themselves.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [len(streamMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: stream: read magic: %w", err)
	}
	if string(magic[:]) != streamMagic {
		return nil, fmt.Errorf("trace: stream: bad magic %q (want %q)", magic[:], streamMagic)
	}
	var u16 [2]byte
	if _, err := io.ReadFull(br, u16[:]); err != nil {
		return nil, fmt.Errorf("trace: stream: read version: %w", err)
	}
	if v := binary.LittleEndian.Uint16(u16[:]); v != streamVersion {
		return nil, fmt.Errorf("trace: stream: unsupported version %d (want %d)", v, streamVersion)
	}
	if _, err := io.ReadFull(br, u16[:]); err != nil {
		return nil, fmt.Errorf("trace: stream: read header: %w", err)
	}
	nameLen := int(binary.LittleEndian.Uint16(u16[:]))
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: stream: read name: %w", err)
	}
	var rest [4 + 8 + 8]byte
	if _, err := io.ReadFull(br, rest[:]); err != nil {
		return nil, fmt.Errorf("trace: stream: read header: %w", err)
	}
	meta := StreamMeta{
		Name:        string(name),
		Nodes:       int(binary.LittleEndian.Uint32(rest[0:])),
		Duration:    math.Float64frombits(binary.LittleEndian.Uint64(rest[4:])),
		Granularity: math.Float64frombits(binary.LittleEndian.Uint64(rest[12:])),
	}
	if err := meta.validate(); err != nil {
		return nil, err
	}
	return &StreamReader{r: br, meta: meta, prevStart: math.Inf(-1)}, nil
}

// Meta returns the stream header.
func (sr *StreamReader) Meta() StreamMeta { return sr.meta }

// Records returns the number of contacts delivered so far.
func (sr *StreamReader) Records() int64 { return sr.record }

// NextContact returns the next contact in start order, io.EOF after the
// trailer, or a decoding/validation error carrying the chunk and record
// position. Errors (including io.EOF) are sticky.
func (sr *StreamReader) NextContact() (Contact, error) {
	if sr.err != nil {
		return Contact{}, sr.err
	}
	for sr.idx >= len(sr.a) {
		if sr.done {
			sr.err = io.EOF
			return Contact{}, sr.err
		}
		if err := sr.readChunk(); err != nil {
			sr.err = err
			return Contact{}, err
		}
	}
	i := sr.idx
	sr.idx++
	c := Contact{A: sr.a[i], B: sr.b[i], Start: sr.start[i], End: sr.end[i]}
	if c.A > c.B {
		// Normalize like SortContacts so downstream pair keys agree.
		c.A, c.B = c.B, c.A
	}
	if err := checkStreamRecord(sr.meta, c, sr.prevStart); err != nil {
		sr.err = fmt.Errorf("trace: stream: chunk %d record %d: %w", sr.chunk, i, err)
		return Contact{}, sr.err
	}
	sr.prevStart = c.Start
	sr.record++
	return c, nil
}

// readChunk decodes the next chunk into the columnar buffers, or sets
// done when it is the trailer.
func (sr *StreamReader) readChunk() error {
	sr.chunk++
	var hdr [8]byte
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("trace: stream: chunk %d: truncated before trailer", sr.chunk)
		}
		return fmt.Errorf("trace: stream: chunk %d: %w", sr.chunk, err)
	}
	count := int(binary.LittleEndian.Uint32(hdr[0:]))
	payloadLen := int(binary.LittleEndian.Uint32(hdr[4:]))
	if count == 0 {
		if payloadLen != 0 {
			return fmt.Errorf("trace: stream: chunk %d: trailer with payload length %d", sr.chunk, payloadLen)
		}
		// A clean stream ends exactly at the trailer.
		if _, err := sr.r.ReadByte(); err != io.EOF {
			return fmt.Errorf("trace: stream: chunk %d: data after trailer", sr.chunk)
		}
		sr.done = true
		sr.a, sr.b, sr.start, sr.end = sr.a[:0], sr.b[:0], sr.start[:0], sr.end[:0]
		sr.idx = 0
		return nil
	}
	if count > maxChunkRecords {
		return fmt.Errorf("trace: stream: chunk %d: record count %d exceeds limit %d", sr.chunk, count, maxChunkRecords)
	}
	if payloadLen != count*recordBytes {
		return fmt.Errorf("trace: stream: chunk %d: payload length %d does not match %d records", sr.chunk, payloadLen, count)
	}
	buf := sr.payloadBuf(payloadLen)
	if _, err := io.ReadFull(sr.r, buf); err != nil {
		return fmt.Errorf("trace: stream: chunk %d: truncated payload (%d records): %w", sr.chunk, count, err)
	}
	sr.a = grow(sr.a, count)
	sr.b = grow(sr.b, count)
	sr.start = grow(sr.start, count)
	sr.end = grow(sr.end, count)
	aOff, bOff := 0, 4*count
	sOff, eOff := 8*count, 16*count
	for i := 0; i < count; i++ {
		sr.a[i] = NodeID(binary.LittleEndian.Uint32(buf[aOff+4*i:]))
		sr.b[i] = NodeID(binary.LittleEndian.Uint32(buf[bOff+4*i:]))
		sr.start[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[sOff+8*i:]))
		sr.end[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[eOff+8*i:]))
	}
	sr.idx = 0
	return nil
}

// payloadBuf returns a reusable byte buffer of exactly n bytes.
func (sr *StreamReader) payloadBuf(n int) []byte {
	if cap(sr.payload) < n {
		sr.payload = make([]byte, n)
	}
	return sr.payload[:n]
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// WriteChunked serializes a materialized trace into the chunked binary
// format (the converter from the plain/CSV paths).
func WriteChunked(w io.Writer, t *Trace) error {
	sw, err := NewStreamWriter(w, StreamMeta{
		Name: t.Name, Nodes: t.Nodes, Duration: t.Duration, Granularity: t.Granularity,
	})
	if err != nil {
		return err
	}
	for _, c := range t.Contacts {
		if err := sw.Add(c); err != nil {
			return err
		}
	}
	return sw.Close()
}

// ReadChunked materializes a chunked stream into a Trace (the converter
// back to the in-memory path the plain/CSV readers produce).
func ReadChunked(r io.Reader) (*Trace, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	meta := sr.Meta()
	t := &Trace{
		Name:        meta.Name,
		Nodes:       meta.Nodes,
		Duration:    meta.Duration,
		Granularity: meta.Granularity,
	}
	// Presize from the file size, as os.ReadFile does: every record
	// takes recordBytes of it, so the quotient bounds the count. Grown
	// by appends instead, the slice allocates about five times its
	// final size.
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			t.Contacts = make([]Contact, 0, fi.Size()/recordBytes)
		}
	}
	for {
		c, err := sr.NextContact()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		t.Contacts = append(t.Contacts, c)
	}
	t.SortContacts()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
