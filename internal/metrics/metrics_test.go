package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyHistogram(t *testing.T) {
	h := NewHistogram(0)
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram not zeroed: %s", h.Summary())
	}
}

func TestBasicStats(t *testing.T) {
	h := NewHistogram(16)
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		h.Observe(d * time.Millisecond)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 3*time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Max() != 5*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	if got := h.Quantile(0.5); got != 3*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Quantile(1.0); got != 5*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := h.Quantile(0); got != 1*time.Millisecond {
		t.Fatalf("p0 = %v", got)
	}
}

func TestReservoirBounded(t *testing.T) {
	h := NewHistogram(64)
	for i := 0; i < 100_000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 100_000 {
		t.Fatalf("count = %d", h.Count())
	}
	// Quantiles remain in range even after reservoir replacement.
	q := h.Quantile(0.5)
	if q < 0 || q > 100_000*time.Microsecond {
		t.Fatalf("p50 out of range: %v", q)
	}
	// Mean and max are exact regardless of sampling.
	if h.Max() != 99_999*time.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}
}

// Property: mean is always between min and max of the observations.
func TestMeanBounded(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		h := NewHistogram(32)
		lo, hi := time.Duration(1<<62), time.Duration(0)
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			d := time.Duration(r.Intn(1_000_000)) * time.Nanosecond
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
			h.Observe(d)
		}
		m := h.Mean()
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuantilesMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		h := NewHistogram(128)
		for i := 0; i < 50+r.Intn(100); i++ {
			h.Observe(time.Duration(r.Intn(1000)) * time.Microsecond)
		}
		last := time.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Interleaving observations and quantile reads must not let the sorted
// cache go stale (a regression test for the sort-once optimization).
func TestQuantileCacheInvalidation(t *testing.T) {
	h := NewHistogram(16)
	h.Observe(5 * time.Millisecond)
	if got := h.Quantile(1.0); got != 5*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	h.Observe(9 * time.Millisecond)
	if got := h.Quantile(1.0); got != 9*time.Millisecond {
		t.Fatalf("p100 after new observation = %v", got)
	}
	h.Observe(1 * time.Millisecond)
	if got := h.Quantile(0); got != 1*time.Millisecond {
		t.Fatalf("p0 after new observation = %v", got)
	}
	// Reservoir replacement must also invalidate the cache.
	h2 := NewHistogram(4)
	for i := 0; i < 4; i++ {
		h2.Observe(time.Hour)
	}
	if got := h2.Quantile(0); got != time.Hour {
		t.Fatalf("p0 = %v", got)
	}
	for i := 0; i < 10_000; i++ {
		h2.Observe(time.Millisecond)
	}
	if got := h2.Quantile(0); got != time.Millisecond {
		t.Fatalf("p0 after reservoir churn = %v (cache went stale)", got)
	}
}

func TestScalarSummary(t *testing.T) {
	h := NewHistogram(8)
	if s := h.ScalarSummary(); !strings.Contains(s, "n=0") {
		t.Fatalf("empty scalar summary %q", s)
	}
	for _, n := range []int{2, 4, 6} {
		h.Observe(time.Duration(n))
	}
	s := h.ScalarSummary()
	for _, want := range []string{"n=3", "mean=4.0", "p50=4", "max=6"} {
		if !strings.Contains(s, want) {
			t.Fatalf("scalar summary %q missing %q", s, want)
		}
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestSyncHistogramConcurrent(t *testing.T) {
	h := NewSyncHistogram(128)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
				_ = h.Quantile(0.5)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 2000 {
		t.Fatalf("count = %d, want 2000", got)
	}
	if s := h.Summary(); !strings.Contains(s, "n=2000") {
		t.Fatalf("summary %q", s)
	}
	if s := h.ScalarSummary(); !strings.Contains(s, "n=2000") {
		t.Fatalf("scalar summary %q", s)
	}
}

func TestSummaryFormat(t *testing.T) {
	h := NewHistogram(8)
	h.Observe(time.Millisecond)
	s := h.Summary()
	for _, want := range []string{"n=1", "mean=", "p50=", "p99=", "max="} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

func TestMergeAggregates(t *testing.T) {
	a := NewHistogram(64)
	b := NewHistogram(64)
	for i := 1; i <= 10; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
	}
	for i := 11; i <= 20; i++ {
		b.Observe(time.Duration(i) * time.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 20 {
		t.Fatalf("count = %d, want 20", a.Count())
	}
	if a.Max() != 20*time.Millisecond {
		t.Fatalf("max = %v", a.Max())
	}
	if a.Mean() != 10500*time.Microsecond {
		t.Fatalf("mean = %v", a.Mean())
	}
	// Under cap on both sides the merged quantiles are exact.
	if got := a.Quantile(1.0); got != 20*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := a.Quantile(0); got != time.Millisecond {
		t.Fatalf("p0 = %v", got)
	}
	// b is untouched.
	if b.Count() != 10 || b.Quantile(0) != 11*time.Millisecond {
		t.Fatalf("merge mutated source: %s", b.Summary())
	}
}

// TestMergeCacheInvariant checks the cached-sort invariant across Merge:
// a quantile read, then a merge, then another read must see merged data.
func TestMergeCacheInvariant(t *testing.T) {
	a := NewHistogram(8)
	a.Observe(2 * time.Millisecond)
	if got := a.Quantile(1.0); got != 2*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	b := NewHistogram(8)
	b.Observe(7 * time.Millisecond)
	a.Merge(b)
	if got := a.Quantile(1.0); got != 7*time.Millisecond {
		t.Fatalf("p100 after merge = %v (sort cache went stale)", got)
	}
	// Merging into a full reservoir keeps samples bounded by cap.
	c := NewHistogram(4)
	for i := 0; i < 4; i++ {
		c.Observe(time.Second)
	}
	d := NewHistogram(4)
	for i := 0; i < 1000; i++ {
		d.Observe(time.Millisecond)
	}
	c.Merge(d)
	if len(c.samples) != 4 {
		t.Fatalf("reservoir overflowed: %d samples", len(c.samples))
	}
	if c.Count() != 1004 {
		t.Fatalf("count = %d", c.Count())
	}
}

func TestSnapshot(t *testing.T) {
	h := NewHistogram(128)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Max != 100*time.Millisecond {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.P50 != 50*time.Millisecond || s.P90 != 90*time.Millisecond || s.P99 != 99*time.Millisecond {
		t.Fatalf("quantiles = %+v", s)
	}
	if s.Mean != h.Mean() {
		t.Fatalf("mean = %v, want %v", s.Mean, h.Mean())
	}
	var empty Snapshot
	if NewHistogram(8).Snapshot() != empty {
		t.Fatal("empty snapshot not zero")
	}
	sh := NewSyncHistogram(8)
	sh.Observe(3 * time.Millisecond)
	if sh.Snapshot().P50 != 3*time.Millisecond {
		t.Fatalf("sync snapshot = %+v", sh.Snapshot())
	}
}

// TestReservoirReplaceInvalidatesCache pins the cache invalidation on the
// reservoir-replacement paths — the ones TestMergeCacheInvariant's append
// paths do not reach. A full reservoir whose slot is overwritten (by
// Observe or by Merge) must invalidate the sorted cache, or quantile reads
// keep serving the pre-replacement samples.
func TestReservoirReplaceInvalidatesCache(t *testing.T) {
	h := NewHistogram(4)
	for i := 0; i < 4; i++ {
		h.Observe(time.Millisecond)
	}
	if got := h.Quantile(1.0); got != time.Millisecond {
		t.Fatalf("p100 = %v", got) // also populates the sort cache
	}
	// The xorshift reservoir is deterministic; observe until it replaces a
	// slot (dirty flips), then the cache must refresh.
	replaced := false
	for i := 0; i < 1000 && !replaced; i++ {
		h.Observe(time.Second)
		replaced = h.dirty
	}
	if !replaced {
		t.Fatal("reservoir never replaced a slot in 1000 observations")
	}
	if got := h.Quantile(1.0); got != time.Second {
		t.Fatalf("p100 after Observe replacement = %v (sort cache went stale)", got)
	}

	// Same property for Merge's replacement path.
	a := NewHistogram(4)
	for i := 0; i < 4; i++ {
		a.Observe(time.Millisecond)
	}
	if got := a.Quantile(1.0); got != time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	replaced = false
	for i := 0; i < 1000 && !replaced; i++ {
		o := NewHistogram(4)
		for j := 0; j < 4; j++ {
			o.Observe(time.Second)
		}
		a.Merge(o)
		replaced = a.dirty
	}
	if !replaced {
		t.Fatal("merge never replaced a reservoir slot in 1000 rounds")
	}
	if got := a.Quantile(1.0); got != time.Second {
		t.Fatalf("p100 after Merge replacement = %v (sort cache went stale)", got)
	}
}

// sortedQuantile is the reference Quantile: sort a copy of the retained
// samples and index it with the same rank rule.
func sortedQuantile(samples []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// TestQuantileMatchesSortReference: selection must return exactly what a
// full sort returns, for every quantile, on random data with heavy ties,
// on sorted and reversed input, and after the reservoir starts replacing
// samples — with reads interleaved between observations, as a poller's
// are.
func TestQuantileMatchesSortReference(t *testing.T) {
	qs := []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	rng := rand.New(rand.NewSource(42))
	gens := map[string]func(i int) time.Duration{
		"uniform":  func(int) time.Duration { return time.Duration(rng.Int63n(1 << 40)) },
		"ties":     func(int) time.Duration { return time.Duration(rng.Intn(7)) },
		"one-tie":  func(int) time.Duration { return 5 },
		"sorted":   func(i int) time.Duration { return time.Duration(i) },
		"reversed": func(i int) time.Duration { return time.Duration(1<<20 - i) },
		"organ":    func(i int) time.Duration { return time.Duration(min(i%512, 511-i%512)) },
	}
	for name, gen := range gens {
		for _, capSamples := range []int{1, 17, 1000} {
			h := NewHistogram(capSamples)
			for i := 0; i < 3*capSamples+50; i++ {
				h.Observe(gen(i))
				if i%7 != 0 {
					continue
				}
				for _, q := range qs {
					if got, want := h.Quantile(q), sortedQuantile(h.samples, q); got != want {
						t.Fatalf("%s cap=%d n=%d q=%v: got %d, want %d", name, capSamples, i+1, q, got, want)
					}
				}
			}
		}
	}
}
