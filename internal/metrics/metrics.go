// Package metrics provides the small set of instruments the experiment
// harness and the live transport need: counters and latency histograms
// with percentile summaries.
//
// Histogram is plain data owned by one goroutine (the simulator) with no
// internal synchronization. Counter and SyncHistogram are safe for
// concurrent use; the TCP transport (internal/livenet) updates them from
// its sender and reader goroutines while status endpoints read them.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotone counter safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Histogram records durations and reports order statistics. It keeps raw
// samples up to a cap, then switches to reservoir sampling so long
// benchmark runs stay O(1) in memory while percentiles remain unbiased.
// Not safe for concurrent use; wrap in SyncHistogram when multiple
// goroutines observe or read.
type Histogram struct {
	samples []time.Duration
	// scratch is a copy of samples that Quantile selects in. Selection
	// only permutes it, so it stays valid until the samples change
	// (dirty), and Quantile never sorts: a reader polling a histogram
	// that keeps being observed pays O(n) per read, not O(n log n).
	scratch []time.Duration
	dirty   bool
	count   int64
	sum     time.Duration
	max     time.Duration
	cap     int
	// rnd is a tiny xorshift state for the reservoir; deterministic.
	rnd uint64
}

// NewHistogram creates a histogram retaining up to capSamples samples
// (default 8192 when <= 0).
func NewHistogram(capSamples int) *Histogram {
	if capSamples <= 0 {
		capSamples = 8192
	}
	return &Histogram{cap: capSamples, rnd: 0x9E3779B97F4A7C15}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, d)
		h.dirty = true
		return
	}
	// Reservoir: replace a random slot with probability cap/count.
	h.rnd ^= h.rnd << 13
	h.rnd ^= h.rnd >> 7
	h.rnd ^= h.rnd << 17
	if idx := h.rnd % uint64(h.count); idx < uint64(h.cap) {
		h.samples[idx] = d
		h.dirty = true
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the mean duration, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(int64(h.sum) / h.count)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the q-quantile (0 <= q <= 1) of the retained samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if h.dirty || len(h.scratch) != len(h.samples) {
		h.scratch = append(h.scratch[:0], h.samples...)
		h.dirty = false
	}
	idx := int(math.Ceil(q*float64(len(h.scratch)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.scratch) {
		idx = len(h.scratch) - 1
	}
	return selectKth(h.scratch, idx)
}

// selectKth returns the k-th smallest element of s (0-based), the value a
// full sort would put at s[k], reordering s in place. It is a quickselect
// with a three-way partition, so runs of equal samples (batch sizes, clock
// ticks) fall out in one pass; if pivots keep degenerating it sorts the
// remaining range instead, which bounds the worst case at O(n log n).
func selectKth(s []time.Duration, k int) time.Duration {
	lo, hi := 0, len(s) // k is in [lo, hi)
	for budget := 2 * bits.Len(uint(len(s))); hi-lo > 16 && budget > 0; budget-- {
		a, b, c := s[lo], s[lo+(hi-lo)/2], s[hi-1]
		p := max(min(a, b), min(max(a, b), c)) // median of three
		// [lo,lt) < p, [lt,i) == p, [gt,hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := s[i]; {
			case v < p:
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case v > p:
				gt--
				s[gt], s[i] = v, s[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	slices.Sort(s[lo:hi])
	return s[k]
}

// Snapshot is a histogram's statistics as plain data, for machine-readable
// reports (benchrunner JSON, tracecheck) that should not re-derive
// quantiles per field.
type Snapshot struct {
	Count int64
	Mean  time.Duration
	Max   time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
}

// Snapshot captures count and quantiles in one pass.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.count,
		Mean:  h.Mean(),
		Max:   h.max,
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// Merge folds another histogram's observations into h. Exact statistics
// (count, mean, max) aggregate exactly; retained samples merge by the same
// reservoir rule as Observe, so quantiles of the union stay approximately
// unbiased when either side has overflowed its cap. o is not modified.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	// seen plays the role Observe's count plays for the reservoir: the
	// length of the sample stream h's reservoir has been offered.
	seen := uint64(len(h.samples))
	for _, d := range o.samples {
		seen++
		if len(h.samples) < h.cap {
			h.samples = append(h.samples, d)
			h.dirty = true
			continue
		}
		h.rnd ^= h.rnd << 13
		h.rnd ^= h.rnd >> 7
		h.rnd ^= h.rnd << 17
		if idx := h.rnd % seen; idx < uint64(h.cap) {
			h.samples[idx] = d
			h.dirty = true
		}
	}
}

// Summary renders count/mean/p50/p99/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean().Round(time.Microsecond), h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond), h.max.Round(time.Microsecond))
}

// ScalarSummary renders the same statistics for dimensionless observations
// recorded as raw time.Duration units (e.g. batch sizes), formatting the
// values as plain integers instead of durations.
func (h *Histogram) ScalarSummary() string {
	mean := 0.0
	if h.count > 0 {
		mean = float64(h.sum) / float64(h.count)
	}
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d max=%d",
		h.count, mean, int64(h.Quantile(0.50)), int64(h.Quantile(0.99)), int64(h.max))
}

// SyncHistogram is a Histogram safe for concurrent use: writers Observe
// from any goroutine while readers take summaries.
type SyncHistogram struct {
	mu sync.Mutex
	h  *Histogram
}

// NewSyncHistogram creates a concurrent-safe histogram retaining up to
// capSamples samples (default 8192 when <= 0).
func NewSyncHistogram(capSamples int) *SyncHistogram {
	return &SyncHistogram{h: NewHistogram(capSamples)}
}

// Observe records one duration.
func (s *SyncHistogram) Observe(d time.Duration) {
	s.mu.Lock()
	s.h.Observe(d)
	s.mu.Unlock()
}

// Count returns the number of observations.
func (s *SyncHistogram) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Count()
}

// Quantile returns the q-quantile of the retained samples.
func (s *SyncHistogram) Quantile(q float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Quantile(q)
}

// Summary renders count/mean/p50/p99/max on one line.
func (s *SyncHistogram) Summary() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Summary()
}

// ScalarSummary renders the statistics as plain integers; see
// Histogram.ScalarSummary.
func (s *SyncHistogram) ScalarSummary() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.ScalarSummary()
}

// Snapshot captures the statistics as plain data; see Histogram.Snapshot.
func (s *SyncHistogram) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Snapshot()
}
