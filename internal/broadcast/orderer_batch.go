package broadcast

import (
	"sort"

	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/trace"
)

// batchState implements the AtomicBatch total-order mode: a leader-based
// orderer in the style of Ring Paxos that pipelines consensus instances and
// orders whole batches of messages per instance.
//
// Every atomic broadcast's payload already reaches every site directly (the
// origin unicasts the envelope to all peers), so the leader — the lowest
// member of the current view, the same identity rule as the fixed
// sequencer — never needs the payloads forwarded to it. It accumulates the
// unordered arrivals into an open batch, seals the batch when a window
// timer fires or a message/byte budget is hit, assigns the batch one
// contiguous range of total-order indices, and announces the whole range in
// a single BatchOrder message. Receivers record the entries through the
// same idempotent recordOrder path as sequencer announcements and deliver
// contiguously, so gap repair (Gap/Retransmit/SkipTo) and state transfer
// work unchanged.
//
// Instances pipeline naturally: the leader seals instance k+1 without
// waiting for any acknowledgement of instance k — agreement comes from the
// leader's uniqueness within the primary partition, exactly as in sequencer
// mode. On a view change that elects a new leader, the new leader
// immediately seals everything buffered-but-unordered (sorted by origin,
// then sequence, for a deterministic handoff order) into a fresh instance
// above the highest index it has heard of, mirroring ReassignUnordered.
type batchState struct {
	s *Stack

	// open is the accumulating batch (leader only), in arrival order.
	open      []pair
	openBytes int

	timerSet bool
	timer    env.TimerID

	// instance counts the consensus instances this site has led, carried in
	// announcements for diagnostics.
	instance uint64
}

func newBatchState(s *Stack) *batchState {
	return &batchState{s: s}
}

// leader reports whether this site currently orders batches.
func (bs *batchState) leader() bool { return bs.s.Sequencer() == bs.s.rt.ID() }

// accept runs when an atomic payload arrives (including the origin's own);
// the envelope is already buffered in s.apayload.
func (bs *batchState) accept(b *message.Bcast) {
	if bs.leader() {
		bs.enqueue(pair{b.Origin, b.Seq})
	}
	// A non-leader may already hold the order (BatchOrder outran the
	// payload); the leader's own seal also drains through here.
	bs.s.drainAtomic()
}

// enqueue adds one unordered pair to the open batch and seals when a budget
// trips; otherwise the window timer (armed on the first message of the
// batch) will.
func (bs *batchState) enqueue(p pair) {
	if _, done := bs.s.aindexed[p]; done {
		return // already ordered (e.g. retransmission or leader change)
	}
	b, ok := bs.s.apayload[p]
	if !ok {
		return
	}
	bs.open = append(bs.open, p)
	bs.openBytes += message.Size(b)
	if len(bs.open) >= bs.s.cfg.BatchMaxMsgs || bs.openBytes >= bs.s.cfg.BatchMaxBytes {
		bs.seal()
		return
	}
	if !bs.timerSet {
		bs.timerSet = true
		bs.timer = bs.s.rt.SetTimer(bs.s.cfg.BatchWindow, bs.onWindow)
	}
}

// onWindow fires when an open batch's accumulation window expires.
func (bs *batchState) onWindow() {
	bs.timerSet = false
	if !bs.leader() {
		// Deposed while the window ran: the new leader re-collects these
		// pairs from its own payload buffer (onViewChange), so just drop
		// the stale accumulation.
		bs.reset()
		return
	}
	if len(bs.open) > 0 {
		bs.seal()
	}
}

// seal closes the open batch: one contiguous index range, one announcement.
func (bs *batchState) seal() {
	if bs.timerSet {
		bs.s.rt.CancelTimer(bs.timer)
		bs.timerSet = false
	}
	s := bs.s
	// Filter out pairs another instance (or a prior leader) already
	// ordered; the budget counters reset regardless.
	batch := bs.open[:0]
	for _, p := range bs.open {
		if _, done := s.aindexed[p]; done {
			continue
		}
		if _, ok := s.apayload[p]; !ok {
			continue
		}
		batch = append(batch, p)
	}
	bs.open = batch
	if len(batch) == 0 {
		bs.reset()
		return
	}
	// The range starts above everything delivered or heard of, the same
	// floor the fixed sequencer uses, so a new leader never reuses indices.
	if s.seqNextIndex <= s.ahighSeen {
		s.seqNextIndex = s.ahighSeen + 1
	}
	if s.seqNextIndex < s.anext {
		s.seqNextIndex = s.anext
	}
	bs.instance++
	entries := make([]message.OrderEntry, 0, len(batch))
	for _, p := range batch {
		idx := s.seqNextIndex
		s.seqNextIndex++
		if b, ok := s.apayload[p]; ok {
			s.cfg.Tracer.Point(b.Trace, trace.KindBatchOrder, idx, p.origin, int64(len(batch)))
		}
		e := message.OrderEntry{Origin: p.origin, Seq: p.seq, Index: idx}
		s.recordOrder(e)
		entries = append(entries, e)
	}
	ord := &message.BatchOrder{Leader: s.rt.ID(), Instance: bs.instance, Entries: entries}
	for _, peer := range s.rt.Peers() {
		if peer == s.rt.ID() {
			continue
		}
		s.rt.Send(peer, ord)
	}
	bs.reset()
	s.drainAtomic()
}

// reset clears the open batch accumulation.
func (bs *batchState) reset() {
	bs.open = bs.open[:0]
	bs.openBytes = 0
}

// handleOrder records an announced instance at a receiver.
func (bs *batchState) handleOrder(bo *message.BatchOrder) {
	for _, e := range bo.Entries {
		bs.s.recordOrder(e)
	}
	bs.s.drainAtomic()
}

// onViewChange re-drives ordering after a membership change: a newly
// elected leader takes over every buffered-but-unordered message in one
// immediate handoff instance; a deposed leader drops its accumulation.
func (bs *batchState) onViewChange() {
	if bs.timerSet {
		bs.s.rt.CancelTimer(bs.timer)
		bs.timerSet = false
	}
	bs.reset()
	if !bs.leader() {
		return
	}
	pending := make([]pair, 0, len(bs.s.apayload))
	for p := range bs.s.apayload {
		if _, done := bs.s.aindexed[p]; !done {
			pending = append(pending, p)
		}
	}
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].origin != pending[j].origin {
			return pending[i].origin < pending[j].origin
		}
		return pending[i].seq < pending[j].seq
	})
	if len(pending) == 0 {
		bs.s.drainAtomic()
		return
	}
	bs.open = append(bs.open, pending...)
	bs.seal()
}
