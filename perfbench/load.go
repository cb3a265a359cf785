package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/message"
)

var epoch = time.Now()

// now is the benchmark's monotonic clock.
func now() time.Duration { return time.Since(epoch) }

// slot is one virtual client: a closed-loop issuer bound to a home site.
// Its fields are written under the home host's event loop (the issuing
// Do closure and the engine callbacks) and read by the generator after the
// completion arrives on its channel.
type slot struct {
	site int
	next int // next op index in the site's pool
	op   *op
	seq  uint64
	tx   *core.Tx

	doWait, issue time.Duration
	begin, end    time.Duration
	readWait      [4]time.Duration
	nReads        int
	commitStart   time.Duration
	outcome       core.Outcome
	reason        core.AbortReason
	err           error
	live          bool
}

// samples holds one run's raw observations, in milliseconds unless named
// otherwise.
type samples struct {
	lat        [3][]float64 // per txnClass, begin → outcome
	doWaitUs   []float64
	issueUs    []float64
	commitMs   []float64
	readWaitUs []float64
}

// runStats is what one measured window produced.
type runStats struct {
	window    time.Duration
	attempted int64
	committed int64
	aborted   int64
	errored   int64
	timedOut  int64
	byReason  map[core.AbortReason]int64
	// abortedStamps holds the stamps of aborted update transactions.
	abortedStamps map[uint64]bool
	unfinished    int
	s             samples

	// The window is cut into slices; end-to-end figures are medians over
	// them. bounds are the slice boundaries, cpuAt the process CPU time
	// read at each.
	bounds []time.Duration
	cpuAt  []time.Duration
	slices []*slice

	setup      float64
	busy       time.Duration // generator time spent handling completions and issuing
	inDo       time.Duration // the part of busy spent inside Host.Do
	gcCPU      float64       // seconds
	totalCPU   float64       // seconds
	allocBytes float64
	heapEnd    float64
	before     counters
	after      counters
	sampled    sampled
	ackedBytes int64 // key+value bytes of every committed write, in the window or not
}

// slice is one slicePeriod of the window: what the transactions begun in
// it did.
type slice struct {
	committed int64
	lat       [3][]float64
}

// slicePeriod is the length of one slice of the measured window.
const slicePeriod = time.Second

// generator drives one cluster in a closed loop.
type generator struct {
	c     *cluster
	slots []*slot
	done  chan *slot
	seq   uint64
}

func newGenerator(c *cluster, window int) *generator {
	g := &generator{c: c}
	for s := range c.hosts {
		for i := 0; i < window; i++ {
			g.slots = append(g.slots, &slot{site: s, next: i * poolSize / window})
		}
	}
	// Sized to every slot, so a callback's completion send never blocks
	// the event loop it runs on.
	g.done = make(chan *slot, len(g.slots))
	return g
}

// issue starts the slot's next transaction through its home host's event
// loop and returns once the Do closure has run.
func (g *generator) issue(sl *slot) {
	pool := g.c.in.pools[sl.site]
	sl.op = &pool[sl.next%len(pool)]
	sl.next++
	g.seq++
	sl.seq = g.seq
	sl.nReads, sl.err, sl.outcome, sl.reason, sl.live = 0, nil, 0, 0, true
	e := g.c.engines[sl.site]
	t0 := now()
	g.c.hosts[sl.site].Do(func() {
		t1 := now()
		sl.doWait = t1 - t0
		sl.begin = t1
		sl.tx = e.Begin(sl.op.class == classRead)
		g.step(e, sl, 0)
		sl.issue = now() - t1
	})
}

// step runs the slot's reads in order, then its writes, then commits.
// Event loop only.
func (g *generator) step(e core.Engine, sl *slot, i int) {
	if i < len(sl.op.reads) {
		t := now()
		e.Read(sl.tx, sl.op.reads[i], func(_ message.Value, err error) {
			if sl.nReads < len(sl.readWait) {
				sl.readWait[sl.nReads] = now() - t
				sl.nReads++
			}
			if err != nil {
				g.abandon(e, sl, err)
				return
			}
			g.step(e, sl, i+1)
		})
		return
	}
	for j, k := range sl.op.writes {
		v := append(message.Value(nil), g.c.in.values[(sl.op.val+j)%len(g.c.in.values)]...)
		stamp(v, sl.seq)
		if err := e.Write(sl.tx, k, v); err != nil {
			g.abandon(e, sl, err)
			return
		}
	}
	sl.commitStart = now()
	e.Commit(sl.tx, func(o core.Outcome, r core.AbortReason) { g.finish(sl, o, r, nil) })
}

// abandon aborts a transaction whose read or write failed. It finishes as
// the engine's abort when the engine had already ended it, and as an error
// otherwise.
func (g *generator) abandon(e core.Engine, sl *slot, err error) {
	if sl.tx.Done() {
		o, r := sl.tx.Outcome()
		g.finish(sl, o, r, nil)
		return
	}
	e.Abort(sl.tx)
	g.finish(sl, core.Aborted, core.ReasonNone, err)
}

func (g *generator) finish(sl *slot, o core.Outcome, r core.AbortReason, err error) {
	sl.end = now()
	sl.outcome, sl.reason, sl.err = o, r, err
	g.done <- sl
}

// measure runs the closed loop: warmup, then the measured window, then a
// drain in which no new transactions start. Transactions are attributed
// to the window by their begin time; one that never finishes within the
// drain grace counts as timed out.
func measure(c *cluster, window time.Duration) (*runStats, error) {
	return drive(c, inFlight, warmup, window, 10*time.Second, true)
}

func drive(c *cluster, perSite int, warm, window, grace time.Duration, observe bool) (*runStats, error) {
	g := newGenerator(c, perSite)
	rs := &runStats{byReason: map[core.AbortReason]int64{}, abortedStamps: map[uint64]bool{}}
	nSlices := max(int(window/slicePeriod), 1)
	// The window opens and its slices close when the generator handles
	// its timers; until then nothing is attributed to them.
	const never = time.Duration(1<<63 - 1)
	tStart, tEnd := never, never
	startTimer := time.NewTimer(warm)
	defer startTimer.Stop()
	var sliceTick <-chan time.Time
	var smp *sampler
	var ru syscall.Rusage
	var rm0 []metrics.Sample
	for _, sl := range g.slots {
		g.issue(sl)
	}
	outstanding := len(g.slots)
	var drainDeadline <-chan time.Time
	for outstanding > 0 {
		var sl *slot
		select {
		case sl = <-g.done:
		case <-startTimer.C:
			tStart = now()
			rs.bounds = []time.Duration{tStart}
			ticker := time.NewTicker(window / time.Duration(nSlices))
			defer ticker.Stop()
			sliceTick = ticker.C
			syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
			rs.cpuAt = []time.Duration{rusageCPU(ru)}
			if observe {
				rs.before = c.counters()
				rm0 = readRuntime()
				smp = startSampler(c)
			}
			continue
		case <-sliceTick:
			rs.bounds = append(rs.bounds, now())
			syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
			rs.cpuAt = append(rs.cpuAt, rusageCPU(ru))
			if len(rs.bounds) <= nSlices {
				continue
			}
			sliceTick = nil
			tEnd = rs.bounds[nSlices]
			rs.window = tEnd - tStart
			if observe {
				smp.stop()
				rs.sampled = smp.res
				rs.after = c.counters()
				rm1 := readRuntime()
				rs.gcCPU = rm1[0].Value.Float64() - rm0[0].Value.Float64()
				rs.totalCPU = rm1[1].Value.Float64() - rm0[1].Value.Float64()
				rs.allocBytes = float64(rm1[2].Value.Uint64() - rm0[2].Value.Uint64())
				rs.heapEnd = float64(rm1[3].Value.Uint64())
			}
			drainDeadline = time.After(grace)
			continue
		case <-drainDeadline:
			for _, sl := range g.slots {
				if sl.live && sl.begin >= tStart && sl.begin < tEnd {
					rs.attempted++
					rs.timedOut++
				}
			}
			rs.unfinished = outstanding
			return rs, nil
		}
		t0 := now()
		sl.live = false
		if sl.err == nil && sl.outcome == core.Committed {
			for _, k := range sl.op.writes {
				rs.ackedBytes += int64(len(k) + valueBytes)
			}
		}
		rs.record(sl, tStart, tEnd)
		if tEnd == never {
			g.issue(sl)
			if sl.begin >= tStart {
				rs.s.doWaitUs = append(rs.s.doWaitUs, us(sl.doWait))
				rs.s.issueUs = append(rs.s.issueUs, us(sl.issue))
			}
			if t0 >= tStart {
				rs.busy += now() - t0
				rs.inDo += sl.doWait + sl.issue
			}
		} else {
			outstanding--
		}
	}
	return rs, nil
}

// record accounts one finished transaction to the window and to the slice
// it began in.
func (rs *runStats) record(sl *slot, tStart, tEnd time.Duration) {
	if sl.begin < tStart || sl.begin >= tEnd {
		return
	}
	i := sort.Search(len(rs.bounds), func(i int) bool { return rs.bounds[i] > sl.begin }) - 1
	for len(rs.slices) <= i {
		rs.slices = append(rs.slices, &slice{})
	}
	sc := rs.slices[i]
	rs.attempted++
	switch {
	case sl.err != nil:
		rs.errored++
	case sl.outcome == core.Committed:
		rs.committed++
		sc.committed++
		lat := ms(sl.end - sl.begin)
		rs.s.lat[sl.op.class] = append(rs.s.lat[sl.op.class], lat)
		sc.lat[sl.op.class] = append(sc.lat[sl.op.class], lat)
		if sl.op.class != classRead {
			rs.s.commitMs = append(rs.s.commitMs, ms(sl.end-sl.commitStart))
		}
	default:
		rs.aborted++
		rs.byReason[sl.reason]++
	}
	if sl.outcome != core.Committed && sl.op.class != classRead {
		rs.abortedStamps[sl.seq] = true
	}
	for i := 0; i < sl.nReads; i++ {
		rs.s.readWaitUs = append(rs.s.readWaitUs, us(sl.readWait[i]))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func rusageCPU(r syscall.Rusage) time.Duration {
	return time.Duration(r.Utime.Nano() + r.Stime.Nano())
}

// readRuntime samples GC CPU, total CPU, cumulative heap allocation and
// live heap bytes.
func readRuntime() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s)
	return s
}

// sampler polls queue depths and lock-table sizes while the window runs.
type sampler struct {
	c    *cluster
	quit chan struct{}
	wg   sync.WaitGroup
	res  sampled
}

// sampled are the window's polled gauges.
type sampled struct {
	n            int
	queueMax     int
	locksHeld    float64 // sum over samples of held locks across sites
	lockWaiters  float64
	pendingCoord int // max
}

const samplePeriod = 20 * time.Millisecond

func startSampler(c *cluster) *sampler {
	sp := &sampler{c: c, quit: make(chan struct{})}
	sp.wg.Add(1)
	go func() {
		defer sp.wg.Done()
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-sp.quit:
				return
			case <-t.C:
				sp.sample()
			}
		}
	}()
	return sp
}

func (sp *sampler) sample() {
	r := &sp.res
	r.n++
	for s, h := range sp.c.hosts {
		for _, ps := range h.PeerStats() {
			r.queueMax = max(r.queueMax, ps.QueueDepth)
		}
		h.Do(func() {
			lm := locksOf(sp.c.engines[s])
			if lm != nil {
				r.locksHeld += float64(lm.Locks())
				r.lockWaiters += float64(lm.Waiters())
			}
			if se, ok := sp.c.engines[s].(*core.ShardedEngine); ok {
				r.pendingCoord = max(r.pendingCoord, se.PendingCoord())
			}
		})
	}
}

func (sp *sampler) stop() {
	if sp == nil {
		return
	}
	close(sp.quit)
	sp.wg.Wait()
}
