package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/lockmgr"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// counters is a cluster-wide snapshot of the layers' monotone counters,
// taken at the window's start and end.
type counters struct {
	at          time.Duration
	updates     int64 // committed update transactions (engine stats at their home sites)
	byReason    map[core.AbortReason]int64
	netSent     int64 // envelopes written to peer sockets
	netFlushes  int64 // socket writes (each carries a coalesced batch)
	dropped     int64
	walBytes    int64
	pipeFlushes int64
}

func (c *cluster) counters() counters {
	k := counters{at: now(), byReason: map[core.AbortReason]int64{}}
	for s, h := range c.hosts {
		for _, ps := range h.PeerStats() {
			if ps.Peer != h.ID() {
				k.netSent += ps.Sent
				var n int64
				fmt.Sscanf(ps.FlushBatch, "n=%d", &n)
				k.netFlushes += n
			}
		}
		_, _, dropped := h.Counters()
		k.dropped += dropped
		h.Do(func() {
			st := c.engines[s].Stats()
			k.updates += st.Committed
			for r, n := range st.AbortsByReason {
				k.byReason[r] += n
			}
			for _, u := range c.units[s] {
				store, pipe := c.store(s, u)
				if w := store.WAL(); w != nil {
					k.walBytes += w.AppendedBytes()
				}
				k.pipeFlushes += pipe.Flushes
			}
		})
	}
	return k
}

// locksOf returns an engine's lock table when it exposes one.
func locksOf(e core.Engine) *lockmgr.Manager {
	if l, ok := e.(interface{ Locks() *lockmgr.Manager }); ok {
		return l.Locks()
	}
	return nil
}

// endToEnd fills the metrics a user of the cluster sees, each over the
// whole measured window, so that every checkpoint, GC cycle and stall in
// it counts. setup_s is the median of the run's set-ups.
func (rs *runStats) endToEnd(m map[string]metric) {
	m["setup_s"] = metric{rs.setup, "s"}
	m["tput_txn_s"] = metric{rs.tput(), "1/s"}
	m["write_p50_ms"] = metric{quantile(rs.s.lat[classWrite], 0.50), "ms"}
	m["cpu_us_per_txn"] = metric{us(rs.cpuAt[len(rs.cpuAt)-1]-rs.cpuAt[0]) / float64(max(rs.committed, 1)), "us"}
}

// printSamples reports the window's sample counts and outcomes.
func (rs *runStats) printSamples() {
	fmt.Printf("samples: %d slices; write %d, read %d, xshard %d; attempted %d committed %d aborted %d errored %d timed out %d\n",
		len(rs.bounds)-1, len(rs.s.lat[classWrite]), len(rs.s.lat[classRead]), len(rs.s.lat[classXShard]),
		rs.attempted, rs.committed, rs.aborted, rs.errored, rs.timedOut)
}

// tput is the window's committed transactions per second.
func (rs *runStats) tput() float64 { return float64(rs.committed) / rs.window.Seconds() }

func (rs *runStats) sliceTput(sc *slice, i int) float64 {
	return float64(sc.committed) / (rs.bounds[i+1] - rs.bounds[i]).Seconds()
}

// stallSlices counts the slices whose throughput fell below half the
// median: cluster-wide stalls the medians step over.
func (rs *runStats) stallSlices() float64 {
	med := median(rs.sliceValues(rs.sliceTput))
	var n float64
	for _, t := range rs.sliceValues(rs.sliceTput) {
		if t < med/2 {
			n++
		}
	}
	return n
}

// sliceMedian is the median over the window's slices of f.
func (rs *runStats) sliceMedian(f func(sc *slice, i int) float64) float64 {
	return median(rs.sliceValues(f))
}

// sliceValues evaluates f on every slice of the window.
func (rs *runStats) sliceValues(f func(sc *slice, i int) float64) []float64 {
	var xs []float64
	for i := 0; i+1 < len(rs.bounds); i++ {
		sc := &slice{}
		if i < len(rs.slices) {
			sc = rs.slices[i]
		}
		xs = append(xs, f(sc, i))
	}
	return xs
}

// failFrac is (aborted + errored + timed out) / attempted.
func (rs *runStats) failFrac() float64 {
	return float64(rs.aborted+rs.errored+rs.timedOut) / float64(max(rs.attempted, 1))
}

// genCheck reports the generator's own busy share (outside Host.Do) and
// flags a run whose pace the generator, not the program, may have set:
// its own work took a large share of the window, its goroutine had no
// idle time left (so virtual clients waited to be reissued), or the
// transport dropped messages (which stalls transactions rather than
// slowing the program).
func (rs *runStats) genCheck(label string) {
	own := rs.ownBusy()
	total := rs.busy.Seconds() / rs.window.Seconds()
	dropped := rs.after.dropped - rs.before.dropped
	fmt.Printf("generator (%s run): own work %.3f of the window, %.3f with the time inside Host.Do; %d messages dropped\n",
		label, own, total, dropped)
	if own > 0.25 || total > 0.9 || dropped > 0 {
		fmt.Printf("FLAG: the %s run's pace may be set by the generator or by dropped messages, not by the program\n", label)
	}
}

// ownBusy is the generator's own work, outside Host.Do, as a share of the
// window.
func (rs *runStats) ownBusy() float64 { return (rs.busy - rs.inDo).Seconds() / rs.window.Seconds() }

// perLayer fills the per-layer metrics. They come from the traced run
// (tr, tc) except the ones that qualify the untraced run's end-to-end
// numbers (fail_frac, read_*, xshard_*, sample counts, gen.*, go.*).
func perLayer(m map[string]metric, un, tr *runStats, tc *cluster, replayUs float64, probe *overload) {
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("fail_frac", un.failFrac(), "frac")
	set("read_p50_ms", quantile(un.s.lat[classRead], 0.50), "ms")
	set("read_p99_ms", quantile(un.s.lat[classRead], 0.99), "ms")
	set("xshard_p50_ms", quantile(un.s.lat[classXShard], 0.50), "ms")
	set("xshard_p99_ms", quantile(un.s.lat[classXShard], 0.99), "ms")
	set("write_n", float64(len(un.s.lat[classWrite])), "count")
	set("read_n", float64(len(un.s.lat[classRead])), "count")
	set("xshard_n", float64(len(un.s.lat[classXShard])), "count")
	set("gen.busy_frac", un.ownBusy(), "frac")
	tr.genCheck("traced")
	set("trace.overhead_frac", 1-tr.tput()/un.tput(), "frac")
	set("write_p90_ms", un.sliceMedian(func(sc *slice, _ int) float64 { return quantile(sc.lat[classWrite], 0.90) }), "ms")
	set("write_p99_ms", un.sliceMedian(func(sc *slice, _ int) float64 { return quantile(sc.lat[classWrite], 0.99) }), "ms")
	set("write_p999_ms", quantile(un.s.lat[classWrite], 0.999), "ms")
	set("stall_slices", un.stallSlices(), "count")

	b, a := tr.before, tr.after
	updates := float64(max(a.updates-b.updates, 1))

	// livenet
	set("livenet.do_wait_us_p50", quantile(tr.s.doWaitUs, 0.50), "us")
	set("livenet.do_wait_us_p99", quantile(tr.s.doWaitUs, 0.99), "us")
	set("livenet.msgs_per_commit", float64(a.netSent-b.netSent)/updates, "count")
	set("livenet.dropped", float64(a.dropped-b.dropped), "count")
	set("livenet.queue_depth_max", float64(tr.sampled.queueMax), "count")
	set("livenet.flush_batch_mean", float64(a.netSent-b.netSent)/float64(max(a.netFlushes-b.netFlushes, 1)), "count")

	// core
	set("core.issue_us_p50", quantile(tr.s.issueUs, 0.50), "us")
	set("core.commit_wait_ms_p50", quantile(tr.s.commitMs, 0.50), "ms")
	set("core.commit_wait_ms_p99", quantile(tr.s.commitMs, 0.99), "ms")
	set("core.read_wait_us_p50", quantile(tr.s.readWaitUs, 0.50), "us")
	set("core.read_wait_us_p99", quantile(tr.s.readWaitUs, 0.99), "us")
	attempted := float64(max(tr.attempted, 1))
	reason := func(rs ...core.AbortReason) float64 {
		var n int64
		for _, r := range rs {
			n += a.byReason[r] - b.byReason[r]
		}
		return float64(n) / attempted
	}
	var other []core.AbortReason
	for r := core.ReasonNone; r <= core.ReasonClient; r++ {
		if r != core.ReasonWriteConflict && r != core.ReasonCertification {
			other = append(other, r)
		}
	}
	set("core.abort_frac.write-conflict", reason(core.ReasonWriteConflict), "frac")
	set("core.abort_frac.certification", reason(core.ReasonCertification), "frac")
	set("core.abort_frac.other", reason(other...), "frac")

	// lockmgr (sampled gauges: mean over samples of the cluster-wide total)
	ns := float64(max(tr.sampled.n, 1))
	set("lockmgr.waiters_mean", tr.sampled.lockWaiters/ns, "count")
	set("lockmgr.held_mean", tr.sampled.locksHeld/ns, "count")

	// commitpipe, storage, checkpoint, shard: read from the closed cluster.
	fsync, batches, ckptLat := metrics.NewHistogram(0), metrics.NewHistogram(0), metrics.NewHistogram(0)
	var ckpts, keys, versions, pendingOrphans int
	for s := range tc.hosts {
		ckptLat.Merge(tc.engines[s].Stats().CheckpointLatency)
		if se, ok := tc.engines[s].(*core.ShardedEngine); ok {
			pendingOrphans += se.OrphanedPrepares()
		}
		for _, u := range tc.units[s] {
			st, p := tc.store(s, u)
			fsync.Merge(p.FsyncLatency)
			batches.Merge(p.BatchSizes)
			ckpts += tc.checkpointer(s, u).Stats().Checkpoints
			keys += st.Len()
			versions += st.VersionCount()
		}
	}
	set("commitpipe.fsync_ms_p50", ms(fsync.Quantile(0.50)), "ms")
	set("commitpipe.fsync_ms_p99", ms(fsync.Quantile(0.99)), "ms")
	var batchMean float64
	fmt.Sscanf(batches.ScalarSummary(), "n=%d mean=%g", new(int64), &batchMean)
	set("commitpipe.batch_mean", batchMean, "count")
	set("commitpipe.flushes_per_commit", float64(a.pipeFlushes-b.pipeFlushes)/updates, "count")
	set("storage.replay_us_per_record", replayUs, "us")
	set("storage.wal_bytes_per_commit", float64(a.walBytes-b.walBytes)/updates, "B")
	set("storage.disk_bytes_per_user_byte", tc.diskBytes()/tc.userBytes(tr), "ratio")
	set("storage.versions_per_key", float64(versions)/float64(max(keys, 1)), "count")
	set("checkpoint.count", float64(ckpts), "count")
	set("checkpoint.ms_p50", ms(ckptLat.Quantile(0.50)), "ms")

	sp := analyzeSpans(tc.tracers, tc.offsets)
	set("livenet.net_lag_us_p50", quantile(sp.netLagUs, 0.50), "us")
	set("core.ack_wait_ms_p50", quantile(sp.ackWaitMs, 0.50), "ms")
	set("core.cert_wait_us_p50", quantile(sp.certWaitUs, 0.50), "us")
	set("broadcast.order_us_p50", quantile(sp.orderUs, 0.50), "us")
	set("broadcast.deliver_us_p50", quantile(sp.deliverUs, 0.50), "us")
	set("broadcast.deliver_us_p99", quantile(sp.deliverUs, 0.99), "us")
	set("broadcast.causal_hold_us_p99", quantile(sp.causalHoldUs, 0.99), "us")
	set("lockmgr.lock_wait_us_p99", quantile(sp.lockWaitUs, 0.99), "us")
	set("shard.prepare_decide_ms_p50", quantile(sp.prepareDecideMs, 0.50), "ms")
	set("trace.dropped", float64(sp.dropped), "count")
	fmt.Printf("trace: %d spans retained, %d dropped; %d lock-wait spans carry no start stamp\n",
		sp.spans, sp.dropped, sp.unstampedLockWaits)
	set("lockmgr.unstamped_waits", float64(sp.unstampedLockWaits), "count")
	for _, d := range []struct {
		name string
		xs   []float64
	}{
		{"net lag us", sp.netLagUs}, {"ack wait ms", sp.ackWaitMs}, {"cert wait us", sp.certWaitUs},
		{"order us", sp.orderUs}, {"deliver us", sp.deliverUs}, {"causal hold us", sp.causalHoldUs},
		{"lock wait us", sp.lockWaitUs}, {"prepare-decide ms", sp.prepareDecideMs},
	} {
		fmt.Printf("trace %-18s n=%d p50=%.1f p99=%.1f max=%.1f\n", d.name, len(d.xs), quantile(d.xs, 0.5), quantile(d.xs, 0.99), quantile(d.xs, 1))
	}

	nUpd := len(tr.s.lat[classWrite]) + len(tr.s.lat[classXShard])
	set("shard.xshard_frac", float64(len(tr.s.lat[classXShard]))/float64(max(nUpd, 1)), "frac")
	set("shard.pending_coord_max", float64(tr.sampled.pendingCoord), "count")
	set("shard.orphaned_prepares", float64(pendingOrphans), "count")

	var lifetimeUpdates int64
	for _, e := range tc.engines {
		lifetimeUpdates += e.Stats().Committed
	}
	cc := codecCost(tc.taps, lifetimeUpdates)
	set("message.codec_us_per_commit", cc.us, "us")
	set("message.codec_allocs_per_commit", cc.allocs, "count")
	set("message.wire_bytes_per_commit", cc.bytes, "B")

	// The untraced run's runtime: the traced run's heap holds the span rings.
	set("go.alloc_kb_per_txn", un.allocBytes/1024/float64(max(un.committed, 1)), "KiB")
	set("go.gc_cpu_frac", un.gcCPU/max(un.totalCPU, 1e-9), "frac")
	set("go.heap_mb_end", un.heapEnd/1e6, "MB")

	var first, unfinished float64
	if probe != nil {
		first, unfinished = float64(probe.firstDrop), float64(probe.unfinished)
	}
	set("overload.first_drop_window", first, "count")
	set("overload.unfinished", unfinished, "count")
}

// diskBytes is the size of every replica's WAL and checkpoint directory.
func (c *cluster) diskBytes() float64 {
	var n int64
	for _, us := range c.units {
		for _, u := range us {
			filepath.Walk(u.dir, func(_ string, fi os.FileInfo, err error) error {
				if err == nil && !fi.IsDir() {
					n += fi.Size()
				}
				return nil
			})
		}
	}
	return float64(n)
}

// userBytes is the key+value bytes the cluster was asked to keep, each
// counted once per replica: the preloaded keyspace plus every write the
// generator saw acknowledged.
func (c *cluster) userBytes(rs *runStats) float64 {
	rf := float64(sites)
	if c.w.groups > 1 {
		rf = 2
	}
	var pre int64
	for _, k := range c.in.keys {
		pre += int64(len(k) + valueBytes)
	}
	return rf * float64(pre+rs.ackedBytes)
}

// spanStats are the per-layer waits recovered from the traced run's spans.
type spanStats struct {
	netLagUs, ackWaitMs, certWaitUs, orderUs, deliverUs []float64
	causalHoldUs, lockWaitUs, prepareDecideMs           []float64
	dropped                                             uint64
	spans, unstampedLockWaits                           int
}

// stitchSample keeps the cross-site maps small: only transactions whose
// sequence is a multiple of it are stitched across sites.
const stitchSample = 4

func stitched(k trace.Kind) bool {
	switch k {
	case trace.KindNetSend, trace.KindNetRecv, trace.KindBcastSend, trace.KindBcastDeliver,
		trace.KindSeqOrder, trace.KindShardCoord, trace.KindShardDecide:
		return true
	}
	return false
}

// analyzeSpans stitches the sites' spans by transaction, after shifting
// each site's timestamps onto the benchmark clock by its offset.
func analyzeSpans(tracers []*trace.Tracer, offsets []time.Duration) spanStats {
	var out spanStats
	type netKey struct {
		txn      message.TxnID
		from, to message.SiteID
		kind     int64
	}
	type bKey struct {
		txn    message.TxnID
		origin message.SiteID
		seq    uint64
		class  int64
	}
	sends := map[netKey][]time.Duration{}
	recvs := map[netKey][]time.Duration{}
	bsend := map[bKey]time.Duration{}
	atomicSend := map[message.TxnID]time.Duration{}
	seqOrder := map[message.TxnID]time.Duration{}
	coord := map[message.TxnID]time.Duration{}
	decide := map[message.TxnID]map[message.SiteID]time.Duration{}
	var delivers []trace.Span
	earliest := func(m map[message.TxnID]time.Duration, id message.TxnID, t time.Duration) {
		if old, ok := m[id]; !ok || t < old {
			m[id] = t
		}
	}
	for i, tr := range tracers {
		out.dropped += tr.Dropped()
		spans := tr.Spans()
		out.spans += len(spans)
		for _, s := range spans {
			s.Start += offsets[i]
			s.End += offsets[i]
			if s.Trace.Seq%stitchSample != 0 && stitched(s.Kind) {
				continue
			}
			switch s.Kind {
			case trace.KindNetSend:
				k := netKey{s.Trace, s.Site, s.Peer, s.Extra}
				sends[k] = append(sends[k], s.Start)
			case trace.KindNetRecv:
				k := netKey{s.Trace, s.Peer, s.Site, s.Extra}
				recvs[k] = append(recvs[k], s.Start)
			case trace.KindBcastSend:
				bsend[bKey{s.Trace, s.Site, s.Seq, s.Extra}] = s.Start
				if message.Class(s.Extra) == message.ClassAtomic {
					earliest(atomicSend, s.Trace, s.Start)
				}
			case trace.KindBcastDeliver:
				if s.Peer != s.Site {
					delivers = append(delivers, s)
				}
			case trace.KindSeqOrder:
				earliest(seqOrder, s.Trace, s.Start)
			case trace.KindAckWait:
				out.ackWaitMs = append(out.ackWaitMs, ms(s.Duration()))
			case trace.KindCertWait:
				out.certWaitUs = append(out.certWaitUs, us(s.Duration()))
			case trace.KindCausalHold:
				out.causalHoldUs = append(out.causalHoldUs, us(s.Duration()))
			case trace.KindLockWait:
				// A wait whose start the lock table did not stamp reads as
				// starting at host time 0; it is counted, not measured.
				if s.Start == offsets[i] {
					out.unstampedLockWaits++
				} else {
					out.lockWaitUs = append(out.lockWaitUs, us(s.Duration()))
				}
			case trace.KindShardCoord:
				coord[s.Trace] = s.Start
			case trace.KindShardDecide:
				if decide[s.Trace] == nil {
					decide[s.Trace] = map[message.SiteID]time.Duration{}
				}
				if old, ok := decide[s.Trace][s.Peer]; !ok || s.Start < old {
					decide[s.Trace][s.Peer] = s.Start
				}
			}
		}
	}
	// TCP is FIFO per connection, so the i-th send of a (txn, link, kind)
	// is the i-th receive. A key whose counts differ lost spans to ring
	// wraparound and is skipped.
	for k, ss := range sends {
		if rr := recvs[k]; len(rr) == len(ss) {
			for i := range ss {
				out.netLagUs = append(out.netLagUs, us(rr[i]-ss[i]))
			}
		}
	}
	for _, d := range delivers {
		if t0, ok := bsend[bKey{d.Trace, d.Peer, d.Seq, d.Extra}]; ok {
			out.deliverUs = append(out.deliverUs, us(d.Start-t0))
		}
	}
	for id, t0 := range atomicSend {
		if t1, ok := seqOrder[id]; ok && t1 >= t0 {
			out.orderUs = append(out.orderUs, us(t1-t0))
		}
	}
	// A cross-shard round is decided once every touched group has
	// delivered its decision somewhere.
	for id, t0 := range coord {
		var last time.Duration
		for _, t := range decide[id] {
			last = max(last, t)
		}
		if len(decide[id]) > 0 {
			out.prepareDecideMs = append(out.prepareDecideMs, ms(last-t0))
		}
	}
	return out
}

// codecResult is the gob cost of one commit's message mix.
type codecResult struct{ us, allocs, bytes float64 }

// wireEnvelope mirrors the transport's wire frame.
type wireEnvelope struct {
	From message.SiteID
	Msg  message.Message
}

// codecCost round-trips, through one gob stream (as a peer connection
// carries them), the first captured instance of every transaction-bearing
// message signature, and weighs each by its count per committed update.
func codecCost(taps []*tap, updates int64) codecResult {
	message.RegisterGob()
	counts := map[sig]int64{}
	samples := map[sig]message.Message{}
	for _, t := range taps {
		t.mu.Lock()
		for k, n := range t.counts {
			counts[k] += n
			if samples[k] == nil {
				samples[k] = t.samples[k]
			}
		}
		t.mu.Unlock()
	}
	keys := make([]sig, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	roundTrip := func(m message.Message) int {
		if err := enc.Encode(wireEnvelope{Msg: m}); err != nil {
			panic(fmt.Sprintf("encode %T: %v", m, err)) // every engine message is gob-registered
		}
		n := buf.Len()
		var out wireEnvelope
		if err := dec.Decode(&out); err != nil {
			panic(fmt.Sprintf("decode %T: %v", m, err))
		}
		return n
	}
	// Each signature is timed in several batches; the median batch is
	// reported.
	const batches, rounds = 7, 300
	var res codecResult
	var ms0, ms1 runtime.MemStats
	for _, k := range keys {
		m := samples[k]
		roundTrip(m) // the stream sends each type's description once
		var took, allocs []float64
		var wire int
		for b := 0; b < batches; b++ {
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				wire = roundTrip(m)
			}
			took = append(took, us(time.Since(t0))/rounds)
			runtime.ReadMemStats(&ms1)
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/rounds)
		}
		perCommit := float64(counts[k]) / float64(max(updates, 1))
		fmt.Printf("codec %-28s %7.3f per commit, %6.2f us, %5.1f allocs, %4d B per round trip\n",
			k, perCommit, median(took), median(allocs), wire)
		res.us += perCommit * median(took)
		res.allocs += perCommit * median(allocs)
		res.bytes += perCommit * float64(wire)
	}
	return res
}

// overload steps the per-site window up on a live cluster and records the
// first window at which the transport drops messages.
type overload struct {
	windows    []int
	firstDrop  int // 0: no drops at any tested window
	dropped    int64
	unfinished int
}

// overloadProbe runs after the measured window and its checks: each
// probe window runs for a short burst with a short drain.
func overloadProbe(c *cluster) *overload {
	o := &overload{windows: []int{8, 16, 32}}
	d0 := droppedTotal(c)
	for _, win := range o.windows {
		rs, err := drive(c, win, 0, time.Second, 2*time.Second, false)
		if err != nil {
			break
		}
		d1 := droppedTotal(c)
		if d1 > d0 && o.firstDrop == 0 {
			o.firstDrop = win
		}
		o.dropped += d1 - d0
		o.unfinished += rs.unfinished
		d0 = d1
	}
	return o
}

func droppedTotal(c *cluster) int64 {
	var n int64
	for _, h := range c.hosts {
		_, _, d := h.Counters()
		n += d
	}
	return n
}
