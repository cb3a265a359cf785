package livenet

import (
	"fmt"
	"strings"

	"repro/internal/message"
	"repro/internal/metrics"
)

// peerCounters is the live (atomic) counter block for one peer link; the
// sender goroutine, the inbound read loop, and Send all update it
// concurrently while status endpoints read it.
type peerCounters struct {
	sent       metrics.Counter // messages flushed to the wire (or delivered via loopback)
	received   metrics.Counter // messages decoded from this peer's connections
	dropped    metrics.Counter // enqueue failures: send queue (or loopback queue) full
	wireLost   metrics.Counter // messages lost when an established connection failed mid-batch
	connects   metrics.Counter // successful dials (first connect plus every reconnect)
	dialErrors metrics.Counter // failed dial or handshake attempts
	flushBatch *metrics.SyncHistogram
}

func newPeerCounters() *peerCounters {
	return &peerCounters{flushBatch: metrics.NewSyncHistogram(0)}
}

// PeerStats is a point-in-time snapshot of one peer link's transport
// counters. The entry for the host's own id describes the loopback queue.
type PeerStats struct {
	Peer       message.SiteID
	Sent       int64 // messages written and flushed (loopback: delivered locally)
	Received   int64 // messages decoded from this peer
	Dropped    int64 // lost to a full send queue
	WireLost   int64 // lost to a connection failure mid-write
	Connects   int64 // successful dials (reconnects = Connects - 1)
	DialErrors int64 // failed dial/handshake attempts
	QueueDepth int   // outgoing messages currently queued
	QueueCap   int
	FlushBatch string // batch-size distribution: n/mean/p50/p99/max
}

// String renders the snapshot as one compact status token.
func (p PeerStats) String() string {
	return fmt.Sprintf("peer%d=[sent=%d recv=%d dropped=%d lost=%d connects=%d dialerrs=%d queue=%d/%d batch=(%s)]",
		p.Peer, p.Sent, p.Received, p.Dropped, p.WireLost, p.Connects, p.DialErrors,
		p.QueueDepth, p.QueueCap, p.FlushBatch)
}

// PeerStats snapshots every peer link (including the loopback entry for the
// host's own id), ascending by peer id. Safe from any goroutine once Start
// has returned.
func (h *Host) PeerStats() []PeerStats {
	out := make([]PeerStats, 0, len(h.peers))
	for _, id := range h.peers {
		st := h.stats[id]
		ps := PeerStats{
			Peer:       id,
			Sent:       st.sent.Load(),
			Received:   st.received.Load(),
			Dropped:    st.dropped.Load(),
			WireLost:   st.wireLost.Load(),
			Connects:   st.connects.Load(),
			DialErrors: st.dialErrors.Load(),
			QueueCap:   h.cfg.SendQueue,
			FlushBatch: st.flushBatch.ScalarSummary(),
		}
		if id == h.cfg.ID {
			if h.loop != nil {
				ps.QueueDepth = len(h.loop)
			}
		} else if s, ok := h.senders[id]; ok {
			ps.QueueDepth = len(s.out)
		}
		out = append(out, ps)
	}
	return out
}

// TransportSummary renders all peer snapshots as one space-separated line,
// for status outputs.
func (h *Host) TransportSummary() string {
	parts := make([]string, 0, len(h.peers))
	for _, ps := range h.PeerStats() {
		parts = append(parts, ps.String())
	}
	return strings.Join(parts, " ")
}

// Counters returns total (sent, received, dropped) message counts across
// all peer links; dropped includes both queue-full drops and messages
// lost to connection failures. Safe from any goroutine.
func (h *Host) Counters() (sent, received, dropped int64) {
	for _, st := range h.stats {
		sent += st.sent.Load()
		received += st.received.Load()
		dropped += st.dropped.Load() + st.wireLost.Load()
	}
	return sent, received, dropped
}
