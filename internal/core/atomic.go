package core

import (
	"errors"
	"sort"
	"time"

	"repro/internal/broadcast"
	"repro/internal/commitpipe"
	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/message"
	"repro/internal/sgraph"
	"repro/internal/storage"
	"repro/internal/trace"
)

// AtomicEngine implements protocol A: write operations are disseminated by
// causal broadcast (or piggybacked on the commit request), and the commit
// request itself is delivered by atomic broadcast. Because every site
// processes the identical total order of commit requests with the identical
// deterministic certification rule, no acknowledgements of any kind are
// exchanged during commitment — the paper's headline property.
//
// The deterministic decision rule is version certification: the commit
// request carries the transaction's read and write sets with the base
// versions (total-order commit indices) it observed at its home site; a
// site processing the request at total-order index i aborts the transaction
// iff some key's last committed version exceeds the base version, and
// otherwise installs the writes at version i. Reads run against a local
// committed snapshot, so read-only transactions never broadcast, never
// block, and never abort.
type AtomicEngine struct {
	*base
	stack *broadcast.Stack

	pendingWrites map[message.TxnID][]message.KV
	lastCommit    map[message.Key]uint64
	certIndex     uint64 // total-order index of the last processed request
	queue         []certItem

	// Resynchronization state: a site that fell out of the primary
	// partition stops serving (stale) and, on rejoining, performs a state
	// transfer followed by gap repair of the ordered stream.
	stale       bool
	syncPending bool
	lastGap     uint64
	lastStall   uint64

	// Chunked state-transfer reassembly: chunks of one transfer share
	// (From, Applied, Since); a newer generation discards a stale partial
	// one. chunkLast is -1 until the Last chunk names the set's extent.
	chunkFrom    message.SiteID
	chunkApplied uint64
	chunkSince   uint64
	chunkBuf     map[int]*message.SnapshotChunk
	chunkLast    int

	// drainScheduled coalesces certification under the batch orderer: the
	// broadcast stack delivers a sealed batch's requests back to back in
	// one handler turn, and a single deferred drain turns the whole batch
	// into one pipeline group (one shared fsync) instead of one per
	// request.
	drainScheduled bool
}

type certItem struct {
	idx uint64
	req *message.CommitReq
	at  time.Duration // when the ordered request arrived at this site
}

var _ Engine = (*AtomicEngine)(nil)

// NewAtomic creates a protocol A engine on rt.
func NewAtomic(rt env.Runtime, cfg Config) *AtomicEngine {
	e := &AtomicEngine{
		base:          newBase(rt, cfg, "atomic"),
		pendingWrites: make(map[message.TxnID][]message.KV),
		lastCommit:    make(map[message.Key]uint64),
		chunkLast:     -1,
	}
	e.initMembership(func(_, _ message.View) { e.onViewChange() })
	e.stack = broadcast.New(rt, broadcast.Config{
		Deliver:          e.deliver,
		Relay:            cfg.Relay,
		Atomic:           cfg.AtomicMode,
		Members:          e.members,
		Tracer:           cfg.Tracer,
		BatchWindow:      cfg.AtomicBatchWindow,
		BatchMaxMsgs:     cfg.AtomicBatchMsgs,
		BatchMaxBytes:    cfg.AtomicBatchBytes,
		HistoryRetention: cfg.HistoryRetention,
	})
	if cfg.InitialStore != nil {
		// Resume certification from the recovered state: the total-order
		// stream continues past the recovered index (enable Membership so
		// gap repair can fetch anything missed while down).
		e.certIndex = e.store.Applied()
		for _, entry := range e.store.Snapshot() {
			if n := len(entry.Versions); n > 0 {
				e.lastCommit[entry.Key] = entry.Versions[n-1].Index
			}
		}
		e.stack.SkipTo(e.certIndex + 1)
	}
	if cfg.InitialStack != nil {
		// Resume broadcast frontiers from the recovered checkpoint so new
		// broadcasts number above the pre-crash sequences and peers'
		// deliveries are not held for seq 1.
		e.stack.ImportSync(cfg.InitialStack)
	}
	e.initCheckpoint(e.stack.ExportSync)
	return e
}

// Start implements env.Node.
func (e *AtomicEngine) Start() {
	e.startMembership()
	e.startCheckpoint()
	if e.cfg.Membership {
		e.rt.SetTimer(e.probeInterval(), e.gapProbe)
	}
}

// probeInterval is the gap-detector pace, configurable for experiments.
func (e *AtomicEngine) probeInterval() time.Duration {
	if e.cfg.GapProbeInterval > 0 {
		return e.cfg.GapProbeInterval
	}
	return gapProbeInterval
}

// gapProbeInterval paces the ordered-stream gap detector.
const gapProbeInterval = 200 * time.Millisecond

// gapProbe requests retransmission when the same total-order gap persists
// across two probes (a young gap is usually just in-flight traffic), and
// escalates to a full state transfer when retransmission cannot help: a
// certification stall (see below) only a snapshot can clear.
func (e *AtomicEngine) gapProbe() {
	defer e.rt.SetTimer(e.probeInterval(), e.gapProbe)
	if e.stale {
		return
	}
	if idx, ok := e.stack.Gap(); ok {
		e.lastStall = 0
		if idx != e.lastGap {
			e.lastGap = idx
			return
		}
		donor := e.donor()
		if donor == e.rt.ID() {
			return
		}
		e.rt.Send(donor, &message.RetransmitReq{From: e.rt.ID(), FromIndex: idx, Applied: e.haveIndex()})
		return
	}
	e.lastGap = 0
	e.checkCertStall()
}

// checkCertStall escalates a persistent certification stall to a snapshot
// request. Normally the queue head waiting for disseminated writes is a
// transient condition — causal broadcast eventually delivers them. But a
// site that restarts after its peers certified an index holds a
// retransmitted commit request whose WriteReqs were consumed cluster-wide
// before it rejoined: no peer will ever resend them, and retransmission of
// the ordered stream cannot supply them. Only a state transfer covers that
// index. The stall must persist across two probes before escalating so an
// ordinary in-flight dissemination is not mistaken for a lost one.
func (e *AtomicEngine) checkCertStall() {
	if len(e.queue) == 0 || e.cfg.PiggybackWrites {
		e.lastStall = 0
		return
	}
	head := e.queue[0]
	if len(e.pendingWrites[head.req.Txn]) >= head.req.NWrites {
		e.lastStall = 0
		return // deliverable; drain will handle it
	}
	if head.idx != e.lastStall {
		e.lastStall = head.idx
		return
	}
	if !e.syncPending {
		e.rt.Logf("atomic: certification stalled at index %d awaiting unrecoverable writes; requesting state transfer", head.idx)
		e.requestState()
	}
}

// donor picks the peer to resynchronize from: the lowest other member of
// the current view.
func (e *AtomicEngine) donor() message.SiteID {
	for _, m := range e.members() {
		if m != e.rt.ID() {
			return m
		}
	}
	return e.rt.ID()
}

// Receive implements env.Node.
func (e *AtomicEngine) Receive(from message.SiteID, m message.Message) {
	e.observe(from)
	switch {
	case broadcast.Handles(m):
		e.stack.Handle(from, m)
	case membership.Handles(m):
		if e.mem != nil {
			e.mem.Handle(from, m)
		}
	default:
		switch t := m.(type) {
		case *message.Heartbeat:
			// Liveness only.
		case *message.StateRequest:
			e.onStateRequest(t)
		case *message.StateSnapshot:
			e.onStateSnapshot(t)
		case *message.SnapshotChunk:
			e.onSnapshotChunk(t)
		case *message.RetransmitReq:
			e.onRetransmitReq(t)
		case *message.SyncState:
			e.onSyncState(t)
		default:
			e.rt.Logf("atomic: unexpected %v from %v", m.Kind(), from)
		}
	}
}

// Begin implements Engine. The transaction reads from the snapshot of all
// certified commits processed so far at this site.
func (e *AtomicEngine) Begin(readOnly bool) *Tx {
	tx := e.begin(readOnly)
	tx.snapshot = e.certIndex
	return tx
}

// Read implements Engine: a snapshot read, no locks, never blocking.
func (e *AtomicEngine) Read(tx *Tx, key message.Key, cb func(message.Value, error)) {
	if e.stale {
		cb(nil, ErrNotPrimary)
		return
	}
	if err := e.readPrecheck(tx); err != nil {
		cb(nil, err)
		return
	}
	rec, ok, err := e.store.GetAt(key, tx.snapshot)
	if err != nil {
		// Snapshot fell below the GC horizon: surface it; the client
		// aborts and restarts on a fresh snapshot.
		if errors.Is(err, storage.ErrVersionGone) {
			cb(nil, err)
			return
		}
		cb(nil, err)
		return
	}
	var from message.TxnID
	var val message.Value
	ver := uint64(0)
	if ok {
		from, val, ver = rec.Writer, rec.Value, rec.Index
	}
	tx.reads = append(tx.reads, sgraph.ReadObs{Key: key, From: from})
	tx.readVers = append(tx.readVers, message.KeyVer{Key: key, Ver: ver})
	cb(val, nil)
}

// Write implements Engine.
func (e *AtomicEngine) Write(tx *Tx, key message.Key, val message.Value) error {
	if e.stale {
		return ErrNotPrimary
	}
	if err := e.bufferWrite(tx, key, val); err != nil {
		return err
	}
	if !e.cfg.PiggybackWrites {
		e.tr.Point(tx.ID, trace.KindWriteSend, uint64(len(tx.writes)), e.rt.ID(), 1)
		e.stack.Broadcast(message.ClassCausal, &message.WriteReq{
			Txn: tx.ID, OpSeq: len(tx.writes), Key: key, Value: val,
		})
	}
	return nil
}

// Commit implements Engine: one atomic broadcast, zero acknowledgements.
// The callback fires when this site processes the request in total order.
func (e *AtomicEngine) Commit(tx *Tx, cb func(Outcome, AbortReason)) {
	if tx.state == txDone {
		cb(tx.outcome, tx.reason)
		return
	}
	tx.commitCB = cb
	if tx.state == txCommitWait {
		return
	}
	if !tx.wrote {
		e.finish(tx, Committed, ReasonNone)
		return
	}
	tx.state = txCommitWait
	writes := dedupWrites(tx.writes)
	req := &message.CommitReq{
		Txn:     tx.ID,
		Reads:   tx.readVers,
		Writes:  make([]message.KeyVer, 0, len(writes)),
		NWrites: len(tx.writes),
	}
	for _, w := range writes {
		ver := uint64(0)
		if rec, ok, err := e.store.GetAt(w.Key, tx.snapshot); err == nil && ok {
			ver = rec.Index
		}
		req.Writes = append(req.Writes, message.KeyVer{Key: w.Key, Ver: ver})
	}
	if e.cfg.PiggybackWrites {
		req.WriteKV = writes
		e.tr.Point(tx.ID, trace.KindWriteSend, 0, e.rt.ID(), int64(len(writes)))
	}
	tx.commitAt = e.rt.Now()
	e.tr.Point(tx.ID, trace.KindCommitReq, 0, e.rt.ID(), 0)
	e.stack.Broadcast(message.ClassAtomic, req)
}

// Abort implements Engine.
func (e *AtomicEngine) Abort(tx *Tx) {
	if tx.state != txActive {
		return
	}
	if !e.cfg.PiggybackWrites && len(tx.writes) > 0 {
		// Tell peers to drop the disseminated writes; causal FIFO delivers
		// this after every one of them.
		e.stack.Broadcast(message.ClassCausal, &message.Decision{Txn: tx.ID, Commit: false, NOps: len(tx.writes)})
	}
	e.finish(tx, Aborted, ReasonClient)
}

// deliver routes broadcast deliveries: causal carries write dissemination,
// atomic carries commit requests.
func (e *AtomicEngine) deliver(d broadcast.Delivery) {
	switch p := d.Payload.(type) {
	case *message.WriteReq:
		e.pendingWrites[p.Txn] = append(e.pendingWrites[p.Txn], message.KV{Key: p.Key, Value: p.Value})
		e.scheduleDrain()
	case *message.Decision:
		if !p.Commit {
			delete(e.pendingWrites, p.Txn)
		}
	case *message.CommitReq:
		e.queue = append(e.queue, certItem{idx: d.Index, req: p, at: e.rt.Now()})
		e.scheduleDrain()
	default:
		e.rt.Logf("atomic: unexpected payload %v", d.Payload.Kind())
	}
}

// scheduleDrain runs certification for newly deliverable requests. Under
// the batch orderer it defers the drain to a zero-delay timer (armed once
// per handler turn) so all requests of a sealed batch — delivered back to
// back by the stack — certify as one pipeline group; the other modes keep
// the immediate path and their per-delivery group formation.
func (e *AtomicEngine) scheduleDrain() {
	if e.cfg.AtomicMode != broadcast.AtomicBatch {
		e.drain()
		return
	}
	if e.drainScheduled {
		return
	}
	e.drainScheduled = true
	e.rt.SetTimer(0, func() {
		e.drainScheduled = false
		e.drain()
	})
}

// drain processes queued commit requests strictly in total order. The head
// stalls until every disseminated write it announced has arrived — all
// sites stall identically, so determinism is preserved; causal broadcast's
// eventual delivery guarantees progress. The maximal deliverable run is
// handed to the pipeline as one certified group so its installs share a
// single store traversal and its log records one fsync.
func (e *AtomicEngine) drain() {
	var group []commitpipe.Txn
	for len(e.queue) > 0 {
		item := e.queue[0]
		req := item.req
		var writes []message.KV
		if e.cfg.PiggybackWrites {
			writes = req.WriteKV
		} else {
			writes = e.pendingWrites[req.Txn]
			if len(writes) < req.NWrites {
				break // await the causal write dissemination
			}
		}
		e.queue = e.queue[1:]
		e.certIndex = item.idx
		delete(e.pendingWrites, req.Txn)
		group = append(group, e.certTxn(item.idx, req, writes, item.at))
	}
	if len(group) > 0 {
		e.pipe.SubmitGroup(group)
	}
}

// certTxn wraps one totally-ordered commit request as a pipeline adapter;
// the certification closure runs the deterministic rule identically at
// every site, at the request's total-order index.
func (e *AtomicEngine) certTxn(idx uint64, req *message.CommitReq, writes []message.KV, at time.Duration) commitpipe.Txn {
	return commitpipe.Txn{
		ID:      req.Txn,
		Entries: []commitpipe.Entry{{Writes: writes, Index: idx}},
		Certify: func() bool {
			ok := e.certify(req)
			e.tr.Interval(req.Txn, trace.KindCertWait, at, idx, e.rt.ID(), 0)
			certOK := int64(0)
			if ok {
				certOK = 1
			}
			e.tr.Point(req.Txn, trace.KindCert, idx, e.rt.ID(), certOK)
			return ok
		},
		Certified: func() {
			for _, w := range writes {
				e.lastCommit[w.Key] = idx
			}
		},
		Ack: func(committed bool) {
			if tx := e.local[req.Txn]; tx != nil {
				if committed {
					e.finish(tx, Committed, ReasonNone)
				} else {
					e.finish(tx, Aborted, ReasonCertification)
				}
			}
		},
	}
}

// certify applies the deterministic decision rule: every read and write
// base version must still be the key's latest committed version.
func (e *AtomicEngine) certify(req *message.CommitReq) bool {
	for _, kv := range req.Reads {
		if e.lastCommit[kv.Key] > kv.Ver {
			return false
		}
	}
	for _, kv := range req.Writes {
		if e.lastCommit[kv.Key] > kv.Ver {
			return false
		}
	}
	return true
}

// onViewChange lets the broadcast stack re-drive total ordering (sequencer
// failover), marks the site stale when it leaves the primary partition,
// and starts resynchronization when it rejoins one.
func (e *AtomicEngine) onViewChange() {
	e.stack.OnViewChange()
	if !e.inPrimary() {
		e.stale = true
		for _, tx := range e.localTxns() {
			if tx.state == txActive {
				e.finish(tx, Aborted, ReasonNotPrimary)
			}
		}
		return
	}
	if e.stale && !e.syncPending {
		e.requestState()
	}
}

// haveIndex is the applied index advertised on state requests: the donor
// ships only the delta above it. The FullResync ablation always requests
// the whole state.
func (e *AtomicEngine) haveIndex() uint64 {
	if e.cfg.FullResync {
		return 0
	}
	return e.certIndex
}

// requestState asks a donor for a state transfer, retrying until one
// arrives. The request carries this site's applied index so the donor can
// ship O(delta) instead of the full store.
func (e *AtomicEngine) requestState() {
	donor := e.donor()
	if donor == e.rt.ID() {
		// Sole survivor of the primary view: nothing missed by definition.
		e.stale = false
		return
	}
	e.syncPending = true
	e.rt.Send(donor, &message.StateRequest{From: e.rt.ID(), HaveIndex: e.haveIndex()})
	e.rt.SetTimer(time.Second, func() {
		if e.syncPending {
			// No snapshot arrived: clear the guard so the next trigger (view
			// change or stall probe) can re-request from a fresh donor.
			e.syncPending = false
			if e.stale && e.inPrimary() {
				e.requestState()
			}
		}
	})
}

// onStateRequest serves a state transfer to a resynchronizing peer; a stale
// site must not serve.
func (e *AtomicEngine) onStateRequest(req *message.StateRequest) {
	if e.stale {
		return
	}
	e.sendSnapshot(req.From, req.HaveIndex)
}

// snapshotChunkBytes bounds the estimated payload of one SnapshotChunk.
const snapshotChunkBytes = 64 << 10

// sendSnapshot streams this site's state to a resynchronizing peer as a
// sequence of bounded-size chunks. since is the requester's applied index:
// when our store still retains versions above it only the delta ships;
// since 0 (or an implausible future index) ships the full state. The final
// chunk carries the broadcast-stack frontiers and the in-flight write
// dissemination, so the receiver installs everything atomically once the
// set completes.
func (e *AtomicEngine) sendSnapshot(to message.SiteID, since uint64) {
	if since > e.certIndex {
		since = 0
	}
	var entries []message.SnapshotEntry
	if since > 0 {
		entries = e.store.Delta(since)
	} else {
		entries = e.store.Snapshot()
	}
	var chunks []*message.SnapshotChunk
	cur := &message.SnapshotChunk{From: e.rt.ID(), Applied: e.certIndex, Since: since}
	size := 0
	for _, ent := range entries {
		esz := len(ent.Key)
		for _, v := range ent.Versions {
			esz += 20 + len(v.Value)
		}
		if size > 0 && size+esz > snapshotChunkBytes {
			chunks = append(chunks, cur)
			cur = &message.SnapshotChunk{From: e.rt.ID(), Applied: e.certIndex, Since: since}
			size = 0
		}
		cur.Entries = append(cur.Entries, ent)
		size += esz
	}
	chunks = append(chunks, cur) // always at least one (carries the stack)
	last := chunks[len(chunks)-1]
	last.Last = true
	last.Stack = e.stack.ExportSync()
	last.Pending = e.clonePending()
	for i, c := range chunks {
		c.Seq = i
		e.stats.StateChunksSent++
		e.stats.StateBytesSent += int64(message.Size(c))
		e.stats.StateEntriesSent += int64(len(c.Entries))
		e.rt.Send(to, c)
	}
	mode := "delta"
	if since == 0 {
		mode = "full"
	}
	e.rt.Logf("atomic: sent %s state transfer to %v: %d entries in %d chunks (applied %d, since %d)",
		mode, to, len(entries), len(chunks), e.certIndex, since)
}

// clonePending copies the pending-write map (slice headers shared: senders
// only ever append) for embedding in an outgoing message.
func (e *AtomicEngine) clonePending() map[message.TxnID][]message.KV {
	p := make(map[message.TxnID][]message.KV, len(e.pendingWrites))
	for id, kvs := range e.pendingWrites {
		p[id] = kvs
	}
	return p
}

// mergePending adopts the donor's in-flight write dissemination. A
// transaction's WriteReqs arrive in a fixed order, so the donor's slice for
// a shared transaction is a prefix-extension of the local one: the longer
// slice wins. Slices are copied because in-process transports share backing
// arrays between sender and receiver.
func (e *AtomicEngine) mergePending(pending map[message.TxnID][]message.KV) {
	for id, kvs := range pending {
		if len(kvs) > len(e.pendingWrites[id]) {
			e.pendingWrites[id] = append([]message.KV(nil), kvs...)
		}
	}
}

// onSyncState merges frontier state piggybacked on the gap-repair path,
// then re-drives certification with the adopted writes.
func (e *AtomicEngine) onSyncState(ss *message.SyncState) {
	e.mergePending(ss.Pending)
	e.stack.ImportSync(ss.Stack)
	e.drain()
}

// onStateSnapshot installs a legacy monolithic state transfer. Current
// donors stream SnapshotChunk sets instead; this path remains for mixed
// clusters and tests that hand-build a full snapshot.
func (e *AtomicEngine) onStateSnapshot(snap *message.StateSnapshot) {
	// Accept when resynchronizing, or when a gap outran the donor's
	// retransmission window and the snapshot is genuinely ahead.
	if !e.stale && snap.Applied <= e.certIndex {
		return
	}
	e.installState(snap.Entries, snap.Applied, 0, snap.Stack, snap.Pending)
}

// onSnapshotChunk buffers one piece of a chunked state transfer and
// installs the whole set once every chunk has arrived. Chunks may reorder
// in flight; (From, Applied, Since) identifies the transfer generation and
// a newer generation discards a stale partial one.
func (e *AtomicEngine) onSnapshotChunk(c *message.SnapshotChunk) {
	if !e.stale && c.Applied <= e.certIndex {
		return // already caught up past this transfer
	}
	if c.From != e.chunkFrom || c.Applied != e.chunkApplied || c.Since != e.chunkSince {
		if len(e.chunkBuf) > 0 && c.Applied < e.chunkApplied {
			return // stale straggler from an older transfer
		}
		e.chunkFrom, e.chunkApplied, e.chunkSince = c.From, c.Applied, c.Since
		e.chunkBuf = make(map[int]*message.SnapshotChunk)
		e.chunkLast = -1
	}
	e.chunkBuf[c.Seq] = c
	if c.Last {
		e.chunkLast = c.Seq
	}
	if e.chunkLast < 0 || len(e.chunkBuf) != e.chunkLast+1 {
		return // incomplete
	}
	var entries []message.SnapshotEntry
	for i := 0; i <= e.chunkLast; i++ {
		entries = append(entries, e.chunkBuf[i].Entries...)
	}
	last := e.chunkBuf[e.chunkLast]
	e.chunkBuf = nil
	e.chunkLast = -1
	e.installState(entries, last.Applied, last.Since, last.Stack, last.Pending)
}

// installState adopts a completed state transfer and fast-forwards the
// ordered stream past it. since > 0 marks a delta computed against our own
// applied index: the entries merge into the existing chains instead of
// replacing the store wholesale. The site's pre-transfer apply history is
// dropped from the recorder: it replays from the transfer, not the stream.
func (e *AtomicEngine) installState(entries []message.SnapshotEntry, applied, since uint64, stack *message.StackSync, pending map[message.TxnID][]message.KV) {
	if since > 0 {
		e.store.MergeDelta(entries, applied)
		for _, entry := range entries {
			if n := len(entry.Versions); n > 0 {
				e.lastCommit[entry.Key] = entry.Versions[n-1].Index
			}
		}
	} else {
		e.store.Restore(entries, applied)
		e.lastCommit = make(map[message.Key]uint64, len(entries))
		for _, entry := range entries {
			if n := len(entry.Versions); n > 0 {
				e.lastCommit[entry.Key] = entry.Versions[n-1].Index
			}
		}
	}
	e.certIndex = applied
	e.queue = nil
	e.pendingWrites = make(map[message.TxnID][]message.KV)
	e.mergePending(pending)
	e.stack.ImportSync(stack)
	e.stack.SkipTo(applied + 1)
	if e.cfg.Recorder != nil {
		e.cfg.Recorder.DropSite(e.rt.ID())
	}
	e.stale = false
	e.syncPending = false
	e.lastGap = 0
	e.lastStall = 0
	e.rt.Logf("atomic: resynchronized at index %d (%d keys, since %d)", applied, len(entries), since)
}

// onRetransmitReq resends retained ordered broadcasts; if the requester is
// below the retention window it gets a state transfer instead, computed
// against the applied index it advertised.
func (e *AtomicEngine) onRetransmitReq(req *message.RetransmitReq) {
	if e.stale {
		return
	}
	if n := e.stack.Retransmit(req.From, req.FromIndex); n == 0 {
		e.sendSnapshot(req.From, req.Applied)
		return
	}
	// Retransmission alone rebuilds the ordered stream but not the causal
	// and send-sequence frontiers a restarted site is missing; piggyback
	// them so it can both deliver peers' ongoing writes and originate new
	// broadcasts peers will accept.
	e.rt.Send(req.From, &message.SyncState{
		From:    e.rt.ID(),
		Stack:   e.stack.ExportSync(),
		Pending: e.clonePending(),
	})
}

func (e *AtomicEngine) localTxns() []*Tx {
	out := make([]*Tx, 0, len(e.local))
	for _, tx := range e.local {
		out = append(out, tx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// CertIndex exposes the last processed total-order index (tests, tools).
func (e *AtomicEngine) CertIndex() uint64 { return e.certIndex }

// Broadcasts exposes the stack's per-class delivery counters (tests).
func (e *AtomicEngine) Broadcasts() map[message.Class]int64 { return e.stack.Deliveries }

// PendingRemote returns the number of transactions with disseminated writes
// not yet consumed by certification plus queued commit requests (leak
// oracle for tests).
func (e *AtomicEngine) PendingRemote() int { return len(e.pendingWrites) + len(e.queue) }
