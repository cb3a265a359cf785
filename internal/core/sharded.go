package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/broadcast"
	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/env"
	"repro/internal/failure"
	"repro/internal/message"
	"repro/internal/sgraph"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/trace"
)

// ErrNotReplicated is returned for a read of a key whose replication group
// this site does not replicate. Reads are served from local replicas only;
// route the transaction to a member of the key's group instead.
var ErrNotReplicated = errors.New("core: key's replication group not replicated at this site")

// ShardedEngine is protocol A lifted to partial replication (after Sutra &
// Shapiro): the keyspace is split across replication groups by a
// deterministic consistent-hash ring, and each group runs its own atomic
// broadcast/ordering instance, store, WAL, and checkpointer over just its
// member sites. Traffic of group g travels wrapped in message.GroupMsg
// envelopes so one site hosts several independent stacks.
//
// A transaction whose footprint stays inside one group commits exactly
// like the fully replicated engine, scoped to that group: one atomic
// broadcast of the certification request, deterministic certification at
// the group-local total-order index, zero acknowledgements. A home site
// outside the group forwards the request to the group's leader (lowest
// member), which broadcasts on its behalf and reports the outcome back.
//
// A transaction touching several groups runs the certification logic as a
// vote-collection round: the coordinator (home site) sends each touched
// group its sub-writeset in a ShardPrepare, every group orders and
// certifies it locally — blocking the prepare's footprint against
// concurrent conflicting transactions until the outcome — and unicasts
// its deterministic verdict to the coordinator, which commits iff every
// group voted yes and closes the round with a ShardDecision broadcast per
// group. The client is acknowledged only after every touched group has
// durably processed the decision: directly where the coordinator
// replicates the group, and via the group leader's ShardOutcome unicast
// elsewhere — so a true ack means durably committed in every group, the
// same contract as the fully replicated engines. Conflicts abort (never
// wait), and the per-group total order is the deterministic tie-break: of
// two overlapping prepares the one ordered first wins.
//
// Writes are always piggybacked on the certification request (there is no
// causal write dissemination under sharding) and certification checks read
// base versions only: writes are blind and serialize by their install
// index. Membership views are not yet integrated with the ring — the
// sharded engine runs with static membership, relying on per-group gap
// repair and state transfer for catch-up after a restart.
type ShardedEngine struct {
	*base
	ring       *shard.Ring
	groups     map[message.GroupID]*shardGroup
	homeGroups []message.GroupID // groups replicated here, ascending
	coord      map[message.TxnID]*coordState
	// term tracks termination rounds this site runs as successor for
	// prepares whose coordinator is suspected (Config.FailureInterval > 0).
	term map[message.TxnID]*termState
}

// shardGroup is one replication group's slice of the engine: its ordering
// stack, store, commit pipeline, checkpointer, and certification state.
type shardGroup struct {
	id  message.GroupID
	eng *ShardedEngine

	stack *broadcast.Stack
	store *storage.Store
	pipe  *commitpipe.Pipeline
	ckpt  *checkpoint.Checkpointer

	certIndex  uint64
	lastCommit map[message.Key]uint64
	// blocked holds the footprints of certified-but-undecided cross-shard
	// prepares: a concurrent write touching a blocked key — or a read of a
	// key a blocking prepare writes — fails certification
	// (abort-if-any-conflict; the prepare ordered first wins). Several
	// prepares may hold the same key at once (read-read overlaps certify
	// independently), so each key tracks the full holder set and the key
	// stays blocked until the last holder's decision.
	blocked  map[message.Key]*blockSet
	prepared map[message.TxnID]*preparedSub
	// decided records the outcome of every ShardDecision ordered in this
	// group (bounded FIFO, see decidedRetention): duplicates from a
	// successor racing a resurrected coordinator are skipped entirely, and
	// a termination query ordered after the decision is answered with the
	// decision instead of "not prepared".
	decided      map[message.TxnID]bool
	decidedOrder []message.TxnID
	// fenced marks transactions a termination query was ordered for before
	// their prepare: any prepare of a fenced transaction ordered later is
	// refused (vote no, hold nothing), which keeps every member's query
	// answer — and therefore the successor's decision — deterministic.
	fenced map[message.TxnID]bool

	// Gap repair (per group, mirroring the atomic engine's probe).
	lastGap uint64

	// Chunked state-transfer reassembly, as in the atomic engine but scoped
	// to this group.
	chunkFrom    message.SiteID
	chunkApplied uint64
	chunkSince   uint64
	chunkBuf     map[int]*message.SnapshotChunk
	chunkLast    int
}

// blockSet tracks the undecided prepares holding one key. wrote counts
// the holders that write the key: any holder blocks concurrent writes,
// but only a writing holder blocks reads (a read-only hold leaves the
// key's value untouched either way).
type blockSet struct {
	held  map[message.TxnID]bool // holder → prepare writes the key
	wrote int
}

// preparedSub is one cross-shard transaction certified at its prepare
// index, awaiting the coordinator's decision.
type preparedSub struct {
	idx    uint64
	vote   bool
	coord  message.SiteID
	groups []message.GroupID // every group the transaction touches
	keys   []message.Key
	writes []message.KV
}

// decidedRetention bounds each group's remembered decision outcomes; old
// entries are evicted FIFO. Terminations resolve within a few detector
// timeouts, so any query for an evicted decision has long since stopped.
const decidedRetention = 4096

// coordState tracks one cross-shard transaction this site coordinates.
type coordState struct {
	groups  []message.GroupID        // touched groups, ascending
	votes   map[message.GroupID]bool // first verdict per group
	since   time.Duration            // when the round opened (local clock)
	decided bool
	outcome bool
	acked   map[message.GroupID]bool // groups whose durable decision landed
}

// termState tracks one termination round this site runs as successor for
// an orphaned prepare: one deterministic CoordStatus per touched group.
type termState struct {
	groups []message.GroupID // touched groups, ascending
	status map[message.GroupID]*message.CoordStatus
}

var _ Engine = (*ShardedEngine)(nil)

// NewSharded creates a partially replicated protocol A engine on rt.
func NewSharded(rt env.Runtime, cfg Config) (*ShardedEngine, error) {
	if cfg.Shard == nil {
		return nil, errors.New("core: NewSharded requires Config.Shard")
	}
	ring, err := shard.NewRing(*cfg.Shard, len(rt.Peers()))
	if err != nil {
		return nil, err
	}
	e := &ShardedEngine{
		base:   newBase(rt, cfg, "sharded"),
		ring:   ring,
		groups: make(map[message.GroupID]*shardGroup),
		coord:  make(map[message.TxnID]*coordState),
		term:   make(map[message.TxnID]*termState),
	}
	e.homeGroups = ring.SiteGroups(rt.ID())
	for _, gid := range e.homeGroups {
		e.groups[gid] = newShardGroup(e, gid, cfg)
	}
	if cfg.FailureInterval > 0 {
		// Coordinator failover is opt-in: with a detector configured, a
		// suspected coordinator's prepares are terminated by a successor
		// instead of blocking until the coordinator restarts.
		e.base.det = failure.New(rt, failure.Config{
			Interval:  cfg.FailureInterval,
			Timeout:   cfg.FailureTimeout,
			OnSuspect: func(message.SiteID) { e.scanOrphans() },
		})
	}
	return e, nil
}

func newShardGroup(e *ShardedEngine, gid message.GroupID, cfg Config) *shardGroup {
	var st *storage.Store
	if cfg.GroupInitialStore != nil {
		st = cfg.GroupInitialStore(gid)
	}
	if st == nil {
		var w *storage.WAL
		if cfg.GroupWAL != nil {
			w = cfg.GroupWAL(gid)
		}
		st = storage.New(w)
	}
	if cfg.MaxVersions != 0 {
		st.MaxVersions = cfg.MaxVersions
	}
	g := &shardGroup{
		id:         gid,
		eng:        e,
		store:      st,
		lastCommit: make(map[message.Key]uint64),
		blocked:    make(map[message.Key]*blockSet),
		prepared:   make(map[message.TxnID]*preparedSub),
		decided:    make(map[message.TxnID]bool),
		fenced:     make(map[message.TxnID]bool),
		chunkLast:  -1,
	}
	g.pipe = commitpipe.New(commitpipe.Config{
		Site:     e.rt.ID(),
		Store:    st,
		Policy:   cfg.GroupCommit,
		SetTimer: func(d time.Duration, fn func()) { e.rt.SetTimer(d, fn) },
		Now:      e.rt.Now,
		Recorder: cfg.Recorder,
		Tracer:   cfg.Tracer,
		OnApply:  func(message.TxnID) { e.stats.Applied++ },
		Logf:     e.rt.Logf,
	})
	grt := broadcast.GroupRuntime(e.rt, gid, func() []message.SiteID { return e.ring.Members(gid) })
	g.stack = broadcast.New(grt, broadcast.Config{
		Deliver:          g.deliver,
		Atomic:           cfg.AtomicMode,
		Tracer:           cfg.Tracer,
		BatchWindow:      cfg.AtomicBatchWindow,
		BatchMaxMsgs:     cfg.AtomicBatchMsgs,
		BatchMaxBytes:    cfg.AtomicBatchBytes,
		HistoryRetention: cfg.HistoryRetention,
	})
	if g.certIndex = st.Applied(); g.certIndex > 0 {
		// Resume from recovered state: seed the committed-version table and
		// skip the ordered stream past what the checkpoint already covers.
		for _, entry := range st.Snapshot() {
			if n := len(entry.Versions); n > 0 {
				g.lastCommit[entry.Key] = entry.Versions[n-1].Index
			}
		}
		g.stack.SkipTo(g.certIndex + 1)
	}
	if cfg.GroupInitialStack != nil {
		if ss := cfg.GroupInitialStack(gid); ss != nil {
			g.stack.ImportSync(ss)
		}
	}
	if cfg.GroupInitialShard != nil {
		if sr := cfg.GroupInitialShard(gid); sr != nil {
			g.restoreShard(sr)
		}
	}
	g.initCheckpoint(cfg)
	return g
}

// restoreShard re-installs cross-shard certification state recovered from
// a checkpoint: certified-undecided prepares (re-blocking their
// footprints), remembered decision outcomes, and fences. A prepare whose
// written keys carry a store version above its prepare index was decided
// commit before the crash (its blocked footprint admits no other writer
// until the decision) and already reinstalled by WAL replay, so it is
// dropped instead of resurrected.
func (g *shardGroup) restoreShard(sr *message.ShardRecovery) {
	for _, d := range sr.Decided {
		g.recordDecided(d.Txn, d.Commit)
	}
	for _, txn := range sr.Fenced {
		g.fenced[txn] = true
	}
	for _, p := range sr.Prepared {
		if _, done := g.decided[p.Txn]; done {
			continue
		}
		if p.Vote && g.decisionReplayed(p) {
			continue
		}
		g.prepared[p.Txn] = &preparedSub{
			idx: p.Index, vote: p.Vote, coord: p.Coord, groups: p.Groups, keys: p.Keys, writes: p.Writes,
		}
		if p.Vote {
			g.block(p.Txn, p.Keys, p.Writes)
		}
	}
}

// decisionReplayed reports whether p's decision already reached the store
// through WAL replay above the checkpoint (any written key advanced past
// the prepare index — impossible while the footprint is blocked).
func (g *shardGroup) decisionReplayed(p message.PreparedShard) bool {
	for _, w := range p.Writes {
		if rec, ok := g.store.Get(w.Key); ok && rec.Index > p.Index {
			return true
		}
	}
	return false
}

// recordDecided remembers one ordered decision's outcome, evicting the
// oldest entry beyond the retention bound.
func (g *shardGroup) recordDecided(txn message.TxnID, commit bool) {
	if _, have := g.decided[txn]; have {
		return
	}
	g.decided[txn] = commit
	g.decidedOrder = append(g.decidedOrder, txn)
	if len(g.decidedOrder) > decidedRetention {
		evict := g.decidedOrder[0]
		g.decidedOrder = g.decidedOrder[1:]
		delete(g.decided, evict)
	}
}

// exportShard snapshots this group's cross-shard certification state for
// state transfers and checkpoints, deterministically ordered.
func (g *shardGroup) exportShard() *message.ShardRecovery {
	sr := &message.ShardRecovery{Prepared: g.exportPrepared()}
	for _, txn := range g.decidedOrder {
		if commit, ok := g.decided[txn]; ok {
			sr.Decided = append(sr.Decided, message.DecidedShard{Txn: txn, Commit: commit})
		}
	}
	sr.Fenced = make([]message.TxnID, 0, len(g.fenced))
	for txn := range g.fenced {
		sr.Fenced = append(sr.Fenced, txn)
	}
	sort.Slice(sr.Fenced, func(i, j int) bool { return sr.Fenced[i].Less(sr.Fenced[j]) })
	return sr
}

// initCheckpoint wires this group's background checkpointer.
func (g *shardGroup) initCheckpoint(cfg Config) {
	if cfg.GroupCheckpoint == nil {
		return
	}
	e := g.eng
	g.ckpt = newCheckpointer(e.rt, cfg.GroupCheckpoint(g.id), g.store, g.pipe, e.stats.CheckpointLatency, e.tr,
		func(ck *checkpoint.Checkpoint) {
			ck.Stack = g.stack.ExportSync()
			ck.Shard = g.exportShard()
		})
}

// Start implements env.Node.
func (e *ShardedEngine) Start() {
	for _, gid := range e.homeGroups {
		e.groups[gid].ckpt.Start()
	}
	if len(e.homeGroups) > 0 {
		e.rt.SetTimer(e.probeInterval(), e.gapProbe)
	}
	if e.det != nil {
		e.det.Start()
		e.rt.SetTimer(e.rescanInterval(), e.orphanTick)
	}
}

// rescanInterval paces the periodic orphan sweep: one detector timeout, so
// a termination stalled by message loss or a partition retries as soon as
// the suspicion evidence could have changed.
func (e *ShardedEngine) rescanInterval() time.Duration {
	if e.cfg.FailureTimeout > 0 {
		return e.cfg.FailureTimeout
	}
	return 4 * e.cfg.FailureInterval
}

// orphanTick periodically re-runs the orphan sweep and retries the
// idempotent traffic of still-open rounds; re-sent votes, queries, and
// re-broadcast decisions are deduplicated by the first-per-group tallies
// and the ordered fence/decided machinery, so retries are always safe.
func (e *ShardedEngine) orphanTick() {
	defer e.rt.SetTimer(e.rescanInterval(), e.orphanTick)
	e.scanOrphans()
	e.resendPending()
}

func (e *ShardedEngine) probeInterval() time.Duration {
	if e.cfg.GapProbeInterval > 0 {
		return e.cfg.GapProbeInterval
	}
	return gapProbeInterval
}

// gapProbe requests per-group retransmission when the same group-local gap
// persists across two probes (a young gap is usually in-flight traffic).
func (e *ShardedEngine) gapProbe() {
	defer e.rt.SetTimer(e.probeInterval(), e.gapProbe)
	for _, gid := range e.homeGroups {
		g := e.groups[gid]
		idx, ok := g.stack.Gap()
		if !ok {
			g.lastGap = 0
			continue
		}
		if idx != g.lastGap {
			g.lastGap = idx
			continue
		}
		donor := g.donor()
		if donor == e.rt.ID() {
			continue
		}
		g.send(donor, &message.RetransmitReq{From: e.rt.ID(), FromIndex: idx, Applied: g.certIndex})
	}
}

// donor picks the peer to repair from: the lowest other group member.
func (g *shardGroup) donor() message.SiteID {
	for _, m := range g.eng.ring.Members(g.id) {
		if m != g.eng.rt.ID() {
			return m
		}
	}
	return g.eng.rt.ID()
}

// send unicasts a group-scoped message wrapped in the group envelope.
func (g *shardGroup) send(to message.SiteID, m message.Message) {
	g.eng.rt.Send(to, &message.GroupMsg{Group: g.id, Inner: m})
}

// Receive implements env.Node.
func (e *ShardedEngine) Receive(from message.SiteID, m message.Message) {
	e.observe(from)
	switch t := m.(type) {
	case *message.GroupMsg:
		g := e.groups[t.Group]
		if g == nil {
			e.rt.Logf("sharded: %v traffic for unreplicated group %v from %v", t.Inner.Kind(), t.Group, from)
			return
		}
		g.receive(from, t.Inner)
	case *message.ShardForward:
		e.onForward(from, t)
	case *message.ShardVote:
		e.onVote(t)
	case *message.ShardOutcome:
		e.onOutcome(t)
	case *message.CoordStatus:
		e.onCoordStatus(t)
	case *message.Heartbeat:
		// Liveness only (observed above).
	default:
		e.rt.Logf("sharded: unexpected %v from %v", m.Kind(), from)
	}
}

// receive routes one group-scoped message to the group's stack or its
// state-transfer side channel.
func (g *shardGroup) receive(from message.SiteID, m message.Message) {
	if broadcast.Handles(m) {
		g.stack.Handle(from, m)
		return
	}
	switch t := m.(type) {
	case *message.StateRequest:
		g.sendSnapshot(t.From, t.HaveIndex)
	case *message.SnapshotChunk:
		g.onSnapshotChunk(t)
	case *message.RetransmitReq:
		g.onRetransmitReq(t)
	case *message.SyncState:
		g.stack.ImportSync(t.Stack)
	default:
		g.eng.rt.Logf("sharded: unexpected group %v payload %v from %v", g.id, m.Kind(), from)
	}
}

// Begin implements Engine: the transaction reads each local group at its
// current group-local certification index.
func (e *ShardedEngine) Begin(readOnly bool) *Tx {
	tx := e.begin(readOnly)
	tx.gsnap = make(map[message.GroupID]uint64, len(e.homeGroups))
	for _, gid := range e.homeGroups {
		tx.gsnap[gid] = e.groups[gid].certIndex
	}
	return tx
}

// Read implements Engine: a snapshot read against the key's group-local
// replica. Keys of groups this site does not replicate cannot be read here.
func (e *ShardedEngine) Read(tx *Tx, key message.Key, cb func(message.Value, error)) {
	if err := e.readPrecheck(tx); err != nil {
		cb(nil, err)
		return
	}
	gid := e.ring.GroupOf(key)
	g := e.groups[gid]
	if g == nil {
		cb(nil, fmt.Errorf("%w: %q in %v", ErrNotReplicated, key, gid))
		return
	}
	rec, ok, err := g.store.GetAt(key, tx.gsnap[gid])
	if err != nil {
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
	if tx.greads == nil {
		tx.greads = make(map[message.GroupID][]message.KeyVer)
	}
	tx.greads[gid] = append(tx.greads[gid], message.KeyVer{Key: key, Ver: ver})
	cb(val, nil)
}

// Write implements Engine: writes buffer locally and travel piggybacked on
// the certification round at commit.
func (e *ShardedEngine) Write(tx *Tx, key message.Key, val message.Value) error {
	return e.bufferWrite(tx, key, val)
}

// Commit implements Engine: a single-group footprint is one atomic
// broadcast within the group; a multi-group footprint opens the
// vote-collection round.
func (e *ShardedEngine) Commit(tx *Tx, cb func(Outcome, AbortReason)) {
	if tx.state == txDone {
		cb(tx.outcome, tx.reason)
		return
	}
	tx.commitCB = cb
	if tx.state == txCommitWait {
		return
	}
	if !tx.wrote {
		// Read-only: snapshot reads within each group need no round.
		e.finish(tx, Committed, ReasonNone)
		return
	}
	tx.state = txCommitWait
	tx.commitAt = e.rt.Now()
	writes := dedupWrites(tx.writes)
	wByGroup := make(map[message.GroupID][]message.KV)
	for _, w := range writes {
		gid := e.ring.GroupOf(w.Key)
		wByGroup[gid] = append(wByGroup[gid], w)
	}
	touched := touchedGroups(wByGroup, tx.greads)
	e.tr.Point(tx.ID, trace.KindCommitReq, 0, e.rt.ID(), int64(len(touched)))
	if len(touched) == 1 {
		gid := touched[0]
		kvs := wByGroup[gid]
		req := &message.CommitReq{
			Txn:     tx.ID,
			Reads:   tx.greads[gid],
			NWrites: len(kvs),
			WriteKV: kvs,
		}
		e.sendToGroup(gid, req)
		return
	}
	cs := &coordState{groups: touched, votes: make(map[message.GroupID]bool, len(touched)), since: e.rt.Now()}
	e.coord[tx.ID] = cs
	e.tr.Point(tx.ID, trace.KindShardCoord, groupMask(touched), e.rt.ID(), int64(len(touched)))
	for _, gid := range touched {
		e.sendToGroup(gid, &message.ShardPrepare{
			Txn:     tx.ID,
			Group:   gid,
			Coord:   e.rt.ID(),
			Groups:  touched,
			Reads:   tx.greads[gid],
			WriteKV: wByGroup[gid],
		})
	}
}

// touchedGroups returns the ascending union of the write and read groups.
func touchedGroups(writes map[message.GroupID][]message.KV, reads map[message.GroupID][]message.KeyVer) []message.GroupID {
	seen := make(map[message.GroupID]bool, len(writes)+len(reads))
	var out []message.GroupID
	for gid := range writes {
		if !seen[gid] {
			seen[gid] = true
			out = append(out, gid)
		}
	}
	for gid := range reads {
		if !seen[gid] {
			seen[gid] = true
			out = append(out, gid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// groupMask packs a touched-group set into a span Seq bitmask (groups are
// capped far below 64 by the site count).
func groupMask(groups []message.GroupID) uint64 {
	var m uint64
	for _, g := range groups {
		if g < 64 {
			m |= 1 << uint(g)
		}
	}
	return m
}

// sendToGroup atomically broadcasts payload within group gid: directly on
// the local stack when this site is a member, otherwise routed through the
// group's leader.
func (e *ShardedEngine) sendToGroup(gid message.GroupID, payload message.Message) {
	if g := e.groups[gid]; g != nil {
		g.stack.Broadcast(message.ClassAtomic, payload)
		return
	}
	e.rt.Send(e.ring.Leader(gid), &message.ShardForward{Group: gid, Req: payload})
}

// onForward broadcasts a routed payload within the group on behalf of a
// non-member origin.
func (e *ShardedEngine) onForward(from message.SiteID, f *message.ShardForward) {
	g := e.groups[f.Group]
	if g == nil {
		e.rt.Logf("sharded: forward for unreplicated group %v from %v", f.Group, from)
		return
	}
	g.stack.Broadcast(message.ClassAtomic, f.Req)
}

// Abort implements Engine: writes are buffered only, so nothing remote
// exists yet.
func (e *ShardedEngine) Abort(tx *Tx) {
	if tx.state != txActive {
		return
	}
	e.finish(tx, Aborted, ReasonClient)
}

// deliver handles this group's ordered stream.
func (g *shardGroup) deliver(d broadcast.Delivery) {
	switch p := d.Payload.(type) {
	case *message.CommitReq:
		g.onOrderedCommit(d.Index, p)
	case *message.ShardPrepare:
		g.onOrderedPrepare(d.Index, p)
	case *message.ShardDecision:
		g.onOrderedDecision(d.Index, p)
	case *message.CoordQuery:
		g.onOrderedQuery(d.Index, p)
	default:
		g.eng.rt.Logf("sharded: group %v unexpected ordered payload %v", g.id, p.Kind())
	}
}

// onOrderedCommit certifies and (on success) installs a single-group
// transaction at its group-local order index — the fully replicated
// engine's deterministic rule, scoped to the group.
func (g *shardGroup) onOrderedCommit(idx uint64, req *message.CommitReq) {
	g.certIndex = idx
	e := g.eng
	writes := req.WriteKV
	g.pipe.Submit(commitpipe.Txn{
		ID:      req.Txn,
		Entries: []commitpipe.Entry{{Writes: writes, Index: idx}},
		Certify: func() bool {
			ok := g.certify(req.Reads, writes)
			e.tr.Point(req.Txn, trace.KindShardCert, idx, message.SiteID(g.id), boolExtra(ok))
			return ok
		},
		Certified: func() {
			for _, w := range writes {
				g.lastCommit[w.Key] = idx
			}
		},
		Ack: func(committed bool) { g.ackSingle(req.Txn, committed) },
	})
}

// ackSingle resolves a single-group commit once it is durable: finish the
// local transaction, or — when the origin is not a group member — have the
// leader (deterministically one site) report the outcome back.
func (g *shardGroup) ackSingle(txn message.TxnID, committed bool) {
	e := g.eng
	if tx := e.base.local[txn]; tx != nil {
		if committed {
			e.finish(tx, Committed, ReasonNone)
		} else {
			e.finish(tx, Aborted, ReasonCertification)
		}
		return
	}
	if !e.ring.Replicates(g.id, txn.Site) && e.ring.Leader(g.id) == e.rt.ID() {
		e.rt.Send(txn.Site, &message.ShardOutcome{Txn: txn, Commit: committed})
	}
}

// onOrderedPrepare certifies one cross-shard sub-writeset at its prepare
// index, blocks its footprint until the decision, and votes.
func (g *shardGroup) onOrderedPrepare(idx uint64, p *message.ShardPrepare) {
	g.certIndex = idx
	e := g.eng
	if _, done := g.decided[p.Txn]; done {
		// The round already closed in this group (a successor terminated it
		// while this prepare was in flight); the decision said everything.
		return
	}
	if g.fenced[p.Txn] {
		// A termination query was ordered ahead of this prepare: the group
		// answered "not prepared", so the successor's decision is abort.
		// Refuse the prepare — vote no, hold nothing — to keep that answer
		// truthful at every member.
		e.tr.Point(p.Txn, trace.KindShardCert, idx, message.SiteID(g.id), 0)
		e.rt.Send(p.Coord, &message.ShardVote{Txn: p.Txn, Group: g.id, By: e.rt.ID(), Yes: false})
		return
	}
	vote := g.certify(p.Reads, p.WriteKV)
	e.tr.Point(p.Txn, trace.KindShardCert, idx, message.SiteID(g.id), boolExtra(vote))
	sub := &preparedSub{idx: idx, vote: vote, coord: p.Coord, groups: p.Groups, writes: p.WriteKV}
	seen := make(map[message.Key]bool, len(p.Reads)+len(p.WriteKV))
	for _, r := range p.Reads {
		if !seen[r.Key] {
			seen[r.Key] = true
			sub.keys = append(sub.keys, r.Key)
		}
	}
	for _, w := range p.WriteKV {
		if !seen[w.Key] {
			seen[w.Key] = true
			sub.keys = append(sub.keys, w.Key)
		}
	}
	if vote {
		g.block(p.Txn, sub.keys, p.WriteKV)
	}
	g.prepared[p.Txn] = sub
	// Every member votes (self included, through the normal send path so
	// processing is never re-entrant); verdicts are deterministic, so the
	// coordinator counts the first per group.
	g.eng.rt.Send(p.Coord, &message.ShardVote{Txn: p.Txn, Group: g.id, By: e.rt.ID(), Yes: vote})
}

// onOrderedDecision closes a cross-shard round in this group at the
// decision's own order index: unblock the footprint, and install the
// writes there on commit.
func (g *shardGroup) onOrderedDecision(idx uint64, d *message.ShardDecision) {
	g.certIndex = idx
	e := g.eng
	if _, done := g.decided[d.Txn]; done {
		// Duplicate: the coordinator and a successor (or two successors)
		// each closed the round. They provably agree, and the first ordered
		// decision did all the work — skip entirely.
		return
	}
	g.recordDecided(d.Txn, d.Commit)
	delete(g.fenced, d.Txn)
	delete(e.term, d.Txn)
	sub := g.prepared[d.Txn]
	delete(g.prepared, d.Txn)
	if sub != nil && sub.vote {
		g.unblock(d.Txn, sub.keys)
	}
	e.tr.Point(d.Txn, trace.KindShardDecide, idx, message.SiteID(g.id), boolExtra(d.Commit))
	if !d.Commit || sub == nil {
		if sub == nil && d.Commit {
			e.rt.Logf("sharded: group %v commit decision for unknown prepare %v", g.id, d.Txn)
		}
		g.ackDecision(d.Txn, sub, d.Commit)
		return
	}
	writes := sub.writes
	g.pipe.Submit(commitpipe.Txn{
		ID:      d.Txn,
		Entries: []commitpipe.Entry{{Writes: writes, Index: idx}},
		Certified: func() {
			for _, w := range writes {
				g.lastCommit[w.Key] = idx
			}
		},
		Ack: func(bool) { g.ackDecision(d.Txn, sub, true) },
	})
}

// ackDecision reports this group's durable processing of a cross-shard
// decision to the coordinator: directly when the coordinator runs at this
// site, and — when it replicates no member of this group — via the group
// leader's ShardOutcome unicast, so the coordinator never acks the client
// before every touched group is durable.
func (g *shardGroup) ackDecision(txn message.TxnID, sub *preparedSub, commit bool) {
	e := g.eng
	e.onGroupDecided(txn, g.id, commit)
	coord := txn.Site // the coordinator is the home site; sub is authoritative
	if sub != nil {
		coord = sub.coord
	}
	if !e.ring.Replicates(g.id, coord) && e.ring.Leader(g.id) == e.rt.ID() {
		e.rt.Send(coord, &message.ShardOutcome{Txn: txn, Group: g.id, Commit: commit})
	}
}

// block registers txn as a holder of each footprint key; keys in writes
// also count as write-holds, which block concurrent reads.
func (g *shardGroup) block(txn message.TxnID, keys []message.Key, writes []message.KV) {
	wr := make(map[message.Key]bool, len(writes))
	for _, w := range writes {
		wr[w.Key] = true
	}
	for _, k := range keys {
		bs := g.blocked[k]
		if bs == nil {
			bs = &blockSet{held: make(map[message.TxnID]bool, 1)}
			g.blocked[k] = bs
		}
		if _, dup := bs.held[txn]; dup {
			continue
		}
		bs.held[txn] = wr[k]
		if wr[k] {
			bs.wrote++
		}
	}
}

// unblock releases txn's hold on each key; the key stays blocked while
// any other undecided prepare still holds it.
func (g *shardGroup) unblock(txn message.TxnID, keys []message.Key) {
	for _, k := range keys {
		bs := g.blocked[k]
		if bs == nil {
			continue
		}
		wrote, held := bs.held[txn]
		if !held {
			continue
		}
		delete(bs.held, txn)
		if wrote {
			bs.wrote--
		}
		if len(bs.held) == 0 {
			delete(g.blocked, k)
		}
	}
}

// certify is the sharded deterministic rule: every read base version must
// still be the key's latest committed version in this group, no read may
// touch a key an undecided cross-shard prepare writes (the value is about
// to change at the prepare's decision), and no write may touch a key any
// undecided prepare holds. Writes are blind — write-write conflicts
// serialize by install index.
func (g *shardGroup) certify(reads []message.KeyVer, writes []message.KV) bool {
	for _, kv := range reads {
		if g.lastCommit[kv.Key] > kv.Ver {
			return false
		}
		if bs := g.blocked[kv.Key]; bs != nil && bs.wrote > 0 {
			return false
		}
	}
	for _, w := range writes {
		if g.blocked[w.Key] != nil {
			return false
		}
	}
	return true
}

// onGroupDecided runs after this site durably processed one touched
// group's decision; only the coordinator tracks the round.
func (e *ShardedEngine) onGroupDecided(txn message.TxnID, gid message.GroupID, commit bool) {
	cs := e.coord[txn]
	if cs == nil {
		return
	}
	if !cs.decided {
		// The round was closed externally — a successor (or this site's own
		// termination of a stuck round) decided it before the votes came
		// back. Ordered decisions for one transaction provably agree, so
		// adopting the outcome is always safe; without it a coordinator cut
		// off mid-round would wait for votes that can never arrive.
		cs.decided, cs.outcome = true, commit
		cs.acked = make(map[message.GroupID]bool, len(cs.groups))
	}
	e.groupAcked(txn, cs, gid)
}

// groupAcked marks one touched group's decision durable at the
// coordinator and finishes the transaction once every group reported.
func (e *ShardedEngine) groupAcked(txn message.TxnID, cs *coordState, gid message.GroupID) {
	if cs.acked[gid] {
		return
	}
	cs.acked[gid] = true
	if len(cs.acked) < len(cs.groups) {
		return
	}
	delete(e.coord, txn)
	e.finishCoord(txn, cs.outcome)
}

func (e *ShardedEngine) finishCoord(txn message.TxnID, commit bool) {
	tx := e.base.local[txn]
	if tx == nil {
		return
	}
	if commit {
		e.finish(tx, Committed, ReasonNone)
	} else {
		e.finish(tx, Aborted, ReasonCertification)
	}
}

// onVote tallies one group's verdict at the coordinator. Verdicts are
// deterministic across a group's replicas, so the first per group decides
// its entry; once every touched group has reported, the round closes with
// a per-group decision broadcast: commit iff all voted yes. The client
// ack waits for every group's durable decision (onGroupDecided locally,
// ShardOutcome from remote group leaders).
func (e *ShardedEngine) onVote(v *message.ShardVote) {
	cs := e.coord[v.Txn]
	if cs == nil || cs.decided {
		return
	}
	if _, have := cs.votes[v.Group]; !have {
		cs.votes[v.Group] = v.Yes
	}
	if len(cs.votes) < len(cs.groups) {
		return
	}
	commit := true
	for _, gid := range cs.groups {
		if !cs.votes[gid] {
			commit = false
		}
	}
	cs.decided = true
	cs.outcome = commit
	cs.acked = make(map[message.GroupID]bool, len(cs.groups))
	for _, gid := range cs.groups {
		e.sendToGroup(gid, &message.ShardDecision{Txn: v.Txn, Group: gid, Commit: commit})
	}
}

// onOutcome resolves a commit this site could not observe locally: a
// cross-shard group ack from a remote group's leader when a coordinated
// round is in flight, else a single-group commit routed through a group
// this site does not replicate.
func (e *ShardedEngine) onOutcome(o *message.ShardOutcome) {
	if cs := e.coord[o.Txn]; cs != nil {
		if !cs.decided {
			// Externally decided (see onGroupDecided): adopt the outcome.
			cs.decided, cs.outcome = true, o.Commit
			cs.acked = make(map[message.GroupID]bool, len(cs.groups))
		}
		e.groupAcked(o.Txn, cs, o.Group)
		return
	}
	if tx := e.base.local[o.Txn]; tx != nil && tx.state == txCommitWait {
		if o.Commit {
			e.finish(tx, Committed, ReasonNone)
		} else {
			e.finish(tx, Aborted, ReasonCertification)
		}
	}
}

// --- Coordinator failover: termination protocol (after Sutra & Shapiro's
// fault-tolerant certification and the decentralised commitment shape of
// Sutra et al.). When a prepare's coordinator is suspected, the lowest
// live member of the prepare's group becomes its successor: it sends a
// CoordQuery through every touched group's total order, combines the
// deterministic per-group answers into the same AND decision the
// coordinator would have reached, and closes the round with idempotent
// ShardDecision broadcasts. Concurrent successors — or a resurrected
// coordinator — provably reach the same outcome, and duplicate decisions
// are skipped at ordering time.

// onOrderedQuery answers a termination status probe at its order index.
// The answer is a deterministic function of the group's ordered prefix:
// an ordered decision wins, then an ordered prepare's vote; otherwise the
// transaction is fenced so no later-ordered prepare can contradict the
// "not prepared" reply.
func (g *shardGroup) onOrderedQuery(idx uint64, q *message.CoordQuery) {
	g.certIndex = idx
	e := g.eng
	st := &message.CoordStatus{Txn: q.Txn, Group: g.id, By: e.rt.ID()}
	if outcome, done := g.decided[q.Txn]; done {
		st.Decided, st.Outcome = true, outcome
	} else if sub := g.prepared[q.Txn]; sub != nil {
		st.Prepared, st.Vote = true, sub.vote
	} else {
		g.fenced[q.Txn] = true
	}
	e.rt.Send(q.From, st)
}

// scanOrphans hunts prepares whose coordinator cannot decide them: the
// coordinator is suspected, or it is this freshly restarted site itself
// with no surviving coordination record. For each orphan whose successor
// this site is, it (re)runs the termination round; the sweep is re-entered
// on every new suspicion and on a periodic timer, so lost queries and
// partitioned groups retry until the round closes.
func (e *ShardedEngine) scanOrphans() {
	if e.det == nil {
		return
	}
	// Drop stale termination state first (rounds closed by a decision, or
	// whose coordinator turned out alive) — but keep rounds this site still
	// coordinates undecided: those are its own stuck rounds being
	// self-terminated, and their collected statuses must survive the sweep.
	for txn := range e.term {
		if !e.orphaned(txn) && !e.coordOpen(txn) {
			delete(e.term, txn)
		}
	}
	for _, gid := range e.homeGroups {
		g := e.groups[gid]
		// Deterministic sweep order keeps seeded runs reproducible.
		orphans := make([]message.TxnID, 0, len(g.prepared))
		for txn, sub := range g.prepared {
			if e.coordDead(txn, sub.coord) && e.successor(gid) == e.rt.ID() {
				orphans = append(orphans, txn)
			}
		}
		sort.Slice(orphans, func(i, j int) bool { return orphans[i].Less(orphans[j]) })
		for _, txn := range orphans {
			e.terminate(txn, g.prepared[txn].groups)
		}
	}
}

// coordOpen reports whether this site coordinates a still-undecided round
// for txn.
func (e *ShardedEngine) coordOpen(txn message.TxnID) bool {
	cs := e.coord[txn]
	return cs != nil && !cs.decided
}

// resendPending retries the idempotent messages of still-open cross-shard
// rounds, so rounds survive traffic lost to partitions or crashes and
// resolve after a heal without any site restarting. Member side: a prepared
// transaction whose coordinator looks alive re-sends its vote (the
// coordinator counts the first verdict per group, so duplicates are
// no-ops). Coordinator side: a decided round re-broadcasts its decision to
// every group whose durable ack is missing, and an undecided round older
// than two sweep intervals is handed to the termination protocol — the
// coordinator queries its own touched groups exactly as a successor would,
// reaching a decision even when its original prepares were swallowed by a
// partition.
func (e *ShardedEngine) resendPending() {
	for _, gid := range e.homeGroups {
		g := e.groups[gid]
		pending := make([]message.TxnID, 0, len(g.prepared))
		for txn, sub := range g.prepared {
			if sub.coord != e.rt.ID() && !e.det.Suspects(sub.coord) {
				pending = append(pending, txn)
			}
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i].Less(pending[j]) })
		for _, txn := range pending {
			sub := g.prepared[txn]
			e.rt.Send(sub.coord, &message.ShardVote{Txn: txn, Group: gid, By: e.rt.ID(), Yes: sub.vote})
		}
	}
	open := make([]message.TxnID, 0, len(e.coord))
	for txn := range e.coord {
		open = append(open, txn)
	}
	sort.Slice(open, func(i, j int) bool { return open[i].Less(open[j]) })
	patience := 2 * e.rescanInterval()
	for _, txn := range open {
		cs := e.coord[txn]
		if cs.decided {
			for _, gid := range cs.groups {
				if !cs.acked[gid] {
					e.sendToGroupLive(gid, &message.ShardDecision{Txn: txn, Group: gid, Commit: cs.outcome})
				}
			}
			continue
		}
		if e.rt.Now()-cs.since < patience {
			continue
		}
		e.terminate(txn, cs.groups)
	}
}

// orphaned reports whether txn still has a local prepare whose coordinator
// cannot decide it.
func (e *ShardedEngine) orphaned(txn message.TxnID) bool {
	for _, gid := range e.homeGroups {
		if sub := e.groups[gid].prepared[txn]; sub != nil && e.coordDead(txn, sub.coord) {
			return true
		}
	}
	return false
}

// coordDead reports whether coord can no longer decide txn: it is
// suspected, or it is this site itself after a restart that lost the
// coordination record (the prepare was resurrected from a checkpoint).
func (e *ShardedEngine) coordDead(txn message.TxnID, coord message.SiteID) bool {
	if coord == e.rt.ID() {
		return e.coord[txn] == nil
	}
	return e.det.Suspects(coord)
}

// successor picks who terminates orphans of group gid: its lowest member
// not currently suspected. Divergent suspicion views may elect several
// successors at once; their rounds are idempotent and reach the same
// decision, so the overlap is harmless.
func (e *ShardedEngine) successor(gid message.GroupID) message.SiteID {
	for _, m := range e.ring.Members(gid) {
		if !e.det.Suspects(m) {
			return m
		}
	}
	return e.rt.ID()
}

// terminate (re)runs one termination round over the given touched groups:
// query every group whose status is still missing, and re-close the round
// if the statuses are already complete but a decision broadcast may have
// been lost. It serves both a successor terminating an orphan and a live
// coordinator terminating its own stuck round.
func (e *ShardedEngine) terminate(txn message.TxnID, groups []message.GroupID) {
	ts := e.term[txn]
	if ts == nil {
		if len(groups) == 0 {
			// A prepare recovered from a pre-failover checkpoint carries no
			// footprint list; without it no termination round can be run.
			e.rt.Logf("sharded: orphan %v has no group footprint, cannot terminate", txn)
			return
		}
		ts = &termState{groups: groups, status: make(map[message.GroupID]*message.CoordStatus, len(groups))}
		e.term[txn] = ts
		e.tr.Point(txn, trace.KindShardTakeover, groupMask(ts.groups), e.rt.ID(), int64(len(ts.groups)))
	}
	if len(ts.status) == len(ts.groups) {
		e.closeTermination(txn, ts)
		return
	}
	for _, gid := range ts.groups {
		if ts.status[gid] == nil {
			e.sendToGroupLive(gid, &message.CoordQuery{Txn: txn, Group: gid, From: e.rt.ID()})
		}
	}
}

// onCoordStatus tallies one group's termination answer. Answers are
// deterministic per group, so the first per group decides its entry; the
// round closes once every touched group has reported.
func (e *ShardedEngine) onCoordStatus(st *message.CoordStatus) {
	ts := e.term[st.Txn]
	if ts == nil {
		return
	}
	if ts.status[st.Group] == nil {
		ts.status[st.Group] = st
	}
	if len(ts.status) == len(ts.groups) {
		e.closeTermination(st.Txn, ts)
	}
}

// closeTermination reaches the round's decision from complete statuses and
// broadcasts it to every touched group. An already-ordered decision wins
// outright; otherwise the coordinator's AND rule is replayed over the
// collected votes, with "not prepared" (a fence) counting as no. The
// result provably matches any decision the original coordinator reached:
// commit requires yes votes from all groups, which requires every prepare
// ordered ahead of any fence.
func (e *ShardedEngine) closeTermination(txn message.TxnID, ts *termState) {
	commit := true
	decided := false
	for _, gid := range ts.groups {
		if st := ts.status[gid]; st.Decided {
			commit, decided = st.Outcome, true
			break
		}
	}
	if !decided {
		for _, gid := range ts.groups {
			if st := ts.status[gid]; !st.Prepared || !st.Vote {
				commit = false
				break
			}
		}
	}
	for _, gid := range ts.groups {
		e.sendToGroupLive(gid, &message.ShardDecision{Txn: txn, Group: gid, Commit: commit})
	}
}

// sendToGroupLive is sendToGroup with failover routing: a payload for a
// remote group goes to that group's lowest non-suspected member instead of
// blindly to its leader, so termination traffic survives a dead leader.
func (e *ShardedEngine) sendToGroupLive(gid message.GroupID, payload message.Message) {
	if g := e.groups[gid]; g != nil {
		g.stack.Broadcast(message.ClassAtomic, payload)
		return
	}
	to := e.ring.Leader(gid)
	if e.det != nil {
		for _, m := range e.ring.Members(gid) {
			if !e.det.Suspects(m) {
				to = m
				break
			}
		}
	}
	e.rt.Send(to, &message.ShardForward{Group: gid, Req: payload})
}

// --- Per-group state transfer (the atomic engine's machinery scoped to
// one group; writes are always piggybacked under sharding, so there is no
// pending-write dissemination to carry — but certified-undecided prepares
// travel with the final chunk).

// onRetransmitReq resends retained ordered broadcasts of this group, or
// falls back to a state transfer below the retention window.
func (g *shardGroup) onRetransmitReq(req *message.RetransmitReq) {
	if n := g.stack.Retransmit(req.From, req.FromIndex); n == 0 {
		g.sendSnapshot(req.From, req.Applied)
		return
	}
	g.send(req.From, &message.SyncState{From: g.eng.rt.ID(), Stack: g.stack.ExportSync()})
}

// sendSnapshot streams this group's state to a catching-up member in
// bounded chunks; since is the requester's applied index (0 = full state).
func (g *shardGroup) sendSnapshot(to message.SiteID, since uint64) {
	e := g.eng
	if since > g.certIndex {
		since = 0
	}
	var entries []message.SnapshotEntry
	if since > 0 {
		entries = g.store.Delta(since)
	} else {
		entries = g.store.Snapshot()
	}
	var chunks []*message.SnapshotChunk
	cur := &message.SnapshotChunk{From: e.rt.ID(), Applied: g.certIndex, Since: since}
	size := 0
	for _, ent := range entries {
		esz := len(ent.Key)
		for _, v := range ent.Versions {
			esz += 20 + len(v.Value)
		}
		if size > 0 && size+esz > snapshotChunkBytes {
			chunks = append(chunks, cur)
			cur = &message.SnapshotChunk{From: e.rt.ID(), Applied: g.certIndex, Since: since}
			size = 0
		}
		cur.Entries = append(cur.Entries, ent)
		size += esz
	}
	chunks = append(chunks, cur)
	last := chunks[len(chunks)-1]
	last.Last = true
	last.Stack = g.stack.ExportSync()
	last.Shard = g.exportShard()
	for i, c := range chunks {
		c.Seq = i
		e.stats.StateChunksSent++
		e.stats.StateBytesSent += int64(message.Size(c))
		e.stats.StateEntriesSent += int64(len(c.Entries))
		g.send(to, c)
	}
	e.rt.Logf("sharded: group %v sent state transfer to %v: %d entries in %d chunks (applied %d, since %d)",
		g.id, to, len(entries), len(chunks), g.certIndex, since)
}

// exportPrepared snapshots the certified-undecided prepare set, sorted by
// prepare index so the export is deterministic.
func (g *shardGroup) exportPrepared() []message.PreparedShard {
	out := make([]message.PreparedShard, 0, len(g.prepared))
	for id, sub := range g.prepared {
		out = append(out, message.PreparedShard{
			Txn: id, Index: sub.idx, Vote: sub.vote, Coord: sub.coord,
			Groups: sub.groups, Keys: sub.keys, Writes: sub.writes,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		return out[i].Txn.Less(out[j].Txn) // total order even on (impossible) index ties
	})
	return out
}

// onSnapshotChunk reassembles a chunked per-group transfer and installs it
// once complete (see AtomicEngine.onSnapshotChunk).
func (g *shardGroup) onSnapshotChunk(c *message.SnapshotChunk) {
	if c.Applied <= g.certIndex {
		return
	}
	if c.From != g.chunkFrom || c.Applied != g.chunkApplied || c.Since != g.chunkSince {
		if len(g.chunkBuf) > 0 && c.Applied < g.chunkApplied {
			return
		}
		g.chunkFrom, g.chunkApplied, g.chunkSince = c.From, c.Applied, c.Since
		g.chunkBuf = make(map[int]*message.SnapshotChunk)
		g.chunkLast = -1
	}
	g.chunkBuf[c.Seq] = c
	if c.Last {
		g.chunkLast = c.Seq
	}
	if g.chunkLast < 0 || len(g.chunkBuf) != g.chunkLast+1 {
		return
	}
	var entries []message.SnapshotEntry
	for i := 0; i <= g.chunkLast; i++ {
		entries = append(entries, g.chunkBuf[i].Entries...)
	}
	last := g.chunkBuf[g.chunkLast]
	g.chunkBuf = nil
	g.chunkLast = -1
	g.installState(entries, last.Applied, last.Since, last.Stack, last.Shard)
}

// installState adopts a completed per-group transfer and fast-forwards the
// group's ordered stream past it.
func (g *shardGroup) installState(entries []message.SnapshotEntry, applied, since uint64, stack *message.StackSync, shard *message.ShardRecovery) {
	if since > 0 {
		g.store.MergeDelta(entries, applied)
		for _, entry := range entries {
			if n := len(entry.Versions); n > 0 {
				g.lastCommit[entry.Key] = entry.Versions[n-1].Index
			}
		}
	} else {
		g.store.Restore(entries, applied)
		g.lastCommit = make(map[message.Key]uint64, len(entries))
		for _, entry := range entries {
			if n := len(entry.Versions); n > 0 {
				g.lastCommit[entry.Key] = entry.Versions[n-1].Index
			}
		}
	}
	g.certIndex = applied
	g.blocked = make(map[message.Key]*blockSet)
	g.prepared = make(map[message.TxnID]*preparedSub)
	g.decided = make(map[message.TxnID]bool)
	g.decidedOrder = nil
	g.fenced = make(map[message.TxnID]bool)
	nprep := 0
	if shard != nil {
		// Adopt the donor's cross-shard state wholesale: it is exactly the
		// deterministic function of the ordered prefix this transfer skips.
		for _, d := range shard.Decided {
			g.recordDecided(d.Txn, d.Commit)
		}
		for _, txn := range shard.Fenced {
			g.fenced[txn] = true
		}
		for _, p := range shard.Prepared {
			sub := &preparedSub{idx: p.Index, vote: p.Vote, coord: p.Coord, groups: p.Groups, keys: p.Keys, writes: p.Writes}
			g.prepared[p.Txn] = sub
			if p.Vote {
				g.block(p.Txn, p.Keys, p.Writes)
			}
		}
		nprep = len(shard.Prepared)
	}
	g.stack.ImportSync(stack)
	g.stack.SkipTo(applied + 1)
	g.lastGap = 0
	g.eng.rt.Logf("sharded: group %v resynchronized at index %d (%d keys, since %d, %d prepared)",
		g.id, applied, len(entries), since, nprep)
}

// --- Accessors.

// Ring exposes the key→group mapping (routing, tests, tools).
func (e *ShardedEngine) Ring() *shard.Ring { return e.ring }

// LocalGroups returns the groups replicated at this site, ascending.
func (e *ShardedEngine) LocalGroups() []message.GroupID { return e.homeGroups }

// GroupStore returns one local group's store (nil if not replicated here).
func (e *ShardedEngine) GroupStore(gid message.GroupID) *storage.Store {
	if g := e.groups[gid]; g != nil {
		return g.store
	}
	return nil
}

// GroupCertIndex returns one local group's last processed order index.
func (e *ShardedEngine) GroupCertIndex(gid message.GroupID) uint64 {
	if g := e.groups[gid]; g != nil {
		return g.certIndex
	}
	return 0
}

// GroupPipeline returns one local group's commit pipeline.
func (e *ShardedEngine) GroupPipeline(gid message.GroupID) *commitpipe.Pipeline {
	if g := e.groups[gid]; g != nil {
		return g.pipe
	}
	return nil
}

// GroupCheckpointer returns one local group's checkpointer (nil when that
// group's policy is disabled).
func (e *ShardedEngine) GroupCheckpointer(gid message.GroupID) *checkpoint.Checkpointer {
	if g := e.groups[gid]; g != nil {
		return g.ckpt
	}
	return nil
}

// FlushPipelines flushes every local group's commit pipeline (shutdown).
func (e *ShardedEngine) FlushPipelines() {
	for _, gid := range e.homeGroups {
		e.groups[gid].pipe.Flush()
	}
}

// Store implements Engine: the first local group's store (tools and tests
// that assume one store; use GroupStore for a specific group).
func (e *ShardedEngine) Store() *storage.Store {
	if len(e.homeGroups) > 0 {
		return e.groups[e.homeGroups[0]].store
	}
	return e.base.Store()
}

// Pipeline implements Engine: the first local group's pipeline.
func (e *ShardedEngine) Pipeline() *commitpipe.Pipeline {
	if len(e.homeGroups) > 0 {
		return e.groups[e.homeGroups[0]].pipe
	}
	return e.base.Pipeline()
}

// Checkpointer implements Engine: the first local group's checkpointer.
func (e *ShardedEngine) Checkpointer() *checkpoint.Checkpointer {
	if len(e.homeGroups) > 0 {
		return e.groups[e.homeGroups[0]].ckpt
	}
	return nil
}

// PendingCoord returns in-flight cross-shard rounds this site coordinates
// plus certified-undecided prepares across local groups (leak oracle).
func (e *ShardedEngine) PendingCoord() int {
	n := len(e.coord)
	for _, gid := range e.homeGroups {
		n += len(e.groups[gid].prepared)
	}
	return n
}

// Suspects returns the peers the failure detector currently suspects
// (empty without a detector) for STATS and tests.
func (e *ShardedEngine) Suspects() []message.SiteID {
	if e.det == nil {
		return nil
	}
	return e.det.Suspected()
}

// OrphanedPrepares counts certified-undecided prepares across local groups
// whose coordinator is currently unable to decide them — the termination
// protocol's working set (STATS failover visibility).
func (e *ShardedEngine) OrphanedPrepares() int {
	if e.det == nil {
		return 0
	}
	n := 0
	for _, gid := range e.homeGroups {
		for txn, sub := range e.groups[gid].prepared {
			if e.coordDead(txn, sub.coord) {
				n++
			}
		}
	}
	return n
}

func boolExtra(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
