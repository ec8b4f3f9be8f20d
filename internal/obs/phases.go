package obs

import (
	"fmt"
	"io"
	"sync"
)

// Phases accumulates named wall-clock spans: the coarse stages of a
// run (trace load, knowledge build, replay, report). The clock is
// injected as a nanosecond function by the CLI layer — this package
// (and everything under the determinism lint) never reads the wall
// clock itself, and span timings never enter the trace sink.
//
// Spans of the same name accumulate (count + total), so a phase that
// recurs — every knowledge build, every sweep cell — reads
// out as one aggregate line. Phases is safe for concurrent use.
type Phases struct {
	clock func() int64 // nanoseconds; monotonic origin is irrelevant

	mu    sync.Mutex
	order []string // first-start order, the deterministic read-out order
	total map[string]int64
	count map[string]int
	open  map[string]int // re-entrancy depth, to reject nested double-count
}

// NewPhases creates a phase-timer set over the given nanosecond clock
// (e.g. func() int64 { return time.Now().UnixNano() } at the CLI
// layer). A nil clock yields zero-duration spans, which keeps Phases
// usable in tests without a clock.
func NewPhases(clock func() int64) *Phases {
	return &Phases{
		clock: clock,
		total: make(map[string]int64),
		count: make(map[string]int),
		open:  make(map[string]int),
	}
}

// now reads the injected clock (0 without one).
func (p *Phases) now() int64 {
	if p.clock == nil {
		return 0
	}
	return p.clock()
}

// Start opens a span and returns its closer. Closing twice is a no-op.
// Nil-safe: a nil Phases returns a no-op closer.
func (p *Phases) Start(name string) func() {
	if p == nil {
		return func() {}
	}
	start := p.now()
	p.register(name)
	closed := false
	return func() {
		if closed {
			return
		}
		closed = true
		p.Add(name, p.now()-start)
	}
}

// register notes the first appearance of a phase name, fixing its
// position in the summary order.
func (p *Phases) register(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.count[name]; !ok && p.open[name] == 0 {
		p.order = append(p.order, name)
	}
	p.open[name]++
}

// Add accumulates one finished span of the named phase. It may be
// called directly with externally measured durations (the
// cmd/experiments -progress path). Nil-safe.
func (p *Phases) Add(name string, durNs int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.count[name]; !ok && p.open[name] == 0 {
		p.order = append(p.order, name)
	}
	if p.open[name] > 0 {
		p.open[name]--
	}
	p.total[name] += durNs
	p.count[name]++
}

// Totals returns each phase's accumulated duration in nanoseconds and
// its span count, in first-start order.
func (p *Phases) Totals() (names []string, totalNs []int64, counts []int) {
	if p == nil {
		return nil, nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	names = append([]string(nil), p.order...)
	totalNs = make([]int64, len(names))
	counts = make([]int, len(names))
	for i, n := range names {
		totalNs[i] = p.total[n]
		counts[i] = p.count[n]
	}
	return names, totalNs, counts
}

// WriteSummary renders the accumulated phases as aligned text lines.
func (p *Phases) WriteSummary(w io.Writer) error {
	if p == nil {
		return nil
	}
	names, totals, counts := p.Totals()
	if len(names) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "phases:"); err != nil {
		return err
	}
	for i, n := range names {
		if _, err := fmt.Fprintf(w, "  %-32s %10.3fms  (%d span(s))\n",
			n, float64(totals[i])/1e6, counts[i]); err != nil {
			return err
		}
	}
	return nil
}
