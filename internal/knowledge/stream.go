package knowledge

import (
	"io"

	"dtncache/internal/graph"
	"dtncache/internal/trace"
)

// contactFeed folds a contact source into the symmetric pairwise counts
// of every contact with Start <= t, the prefix Builder.counts counts
// from a slice. It counts every contact its source yields and holds no
// more than one of them in memory; merging, where wanted, is the
// source's job.
type contactFeed struct {
	open    func() (trace.ContactSource, error)
	nodes   int
	src     trace.ContactSource
	counts  *graph.RateEstimator
	pend    trace.Contact
	pendOK  bool
	srcDone bool
	t       float64
}

// countsAt advances the feed to time t and returns the pairwise counts
// of the contact prefix with start <= t. Asking for an earlier time
// than a previous call rewinds by reopening the source. The returned
// estimator is reused across calls; callers must consume it before the
// next countsAt.
func (f *contactFeed) countsAt(t float64) (*graph.RateEstimator, error) {
	if f.src == nil || t < f.t {
		src, err := f.open()
		if err != nil {
			return nil, err
		}
		f.src = src
		if f.counts == nil {
			f.counts = graph.NewRateEstimator(f.nodes, 0)
		} else {
			f.counts.Reset()
		}
		f.pendOK, f.srcDone = false, false
	}
	f.t = t
	for {
		if !f.pendOK {
			if f.srcDone {
				break
			}
			c, err := f.src.NextContact()
			if err == io.EOF {
				f.srcDone = true
				break
			}
			if err != nil {
				return nil, err
			}
			f.pend, f.pendOK = c, true
		}
		c := f.pend
		if c.Start > t {
			break
		}
		f.pendOK = false
		f.counts.Observe(c.A, c.B)
	}
	return f.counts, nil
}
