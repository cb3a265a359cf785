package livenet

import (
	"bufio"
	"math/rand"
	"net"
	"time"

	"repro/internal/message"
)

const (
	// senderBufSize is the bufio.Writer capacity in front of each outbound
	// connection; one flush per queue drain replaces one syscall per
	// frame. It also caps the scratch buffer the sender keeps between
	// frames, so one huge state transfer does not pin its size.
	senderBufSize = 64 << 10
	// maxFlushBatch bounds how many messages one drain coalesces, so a
	// deep queue cannot arbitrarily delay the first message of the batch.
	maxFlushBatch = 256
)

// sender owns the outgoing connection to one peer: it dials lazily (with
// jittered exponential backoff), performs the hello handshake, and drains
// its queue in coalesced batches — frame every pending message into the
// buffered writer, then flush once.
//
// Loss semantics mirror the simulator's lossy FIFO link: a message is never
// duplicated. While disconnected, popped messages are held (not dropped)
// until a connection is established; once a batch has been handed to an
// established connection, a write error loses the whole batch (counted in
// wireLost) because its delivery state is unknowable — retransmitting could
// duplicate, and the protocols already tolerate loss.
type sender struct {
	host  *Host
	to    message.SiteID
	addr  string
	out   chan message.Message
	rng   *rand.Rand // jitter source; touched only by the run goroutine
	stats *peerCounters
}

// run is the sender goroutine.
func (s *sender) run() {
	defer s.host.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	var scratch []byte // one frame's encoding, reused across frames
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	batch := make([]message.Message, 0, maxFlushBatch)
	for {
		select {
		case <-s.host.stop:
			return
		case m := <-s.out:
			batch = append(batch[:0], m)
		drain:
			for len(batch) < maxFlushBatch {
				select {
				case m := <-s.out:
					batch = append(batch, m)
				default:
					break drain
				}
			}
			if conn == nil {
				conn, bw = s.connect()
				if conn == nil {
					return // host shut down while dialing
				}
			}
			ok := true
			for _, m := range batch {
				scratch = appendFrame(scratch[:0], m)
				if _, err := bw.Write(scratch); err != nil {
					s.host.logf("send to %v: %v", s.to, err)
					ok = false
					break
				}
			}
			if cap(scratch) > senderBufSize {
				scratch = nil
			}
			if ok {
				if err := bw.Flush(); err != nil {
					s.host.logf("flush to %v: %v", s.to, err)
					ok = false
				}
			}
			if ok {
				s.stats.sent.Add(int64(len(batch)))
				s.stats.flushBatch.Observe(time.Duration(len(batch)))
			} else {
				s.stats.wireLost.Add(int64(len(batch)))
				conn.Close()
				conn, bw = nil, nil
			}
		}
	}
}

// connect dials s.addr until a connection is established and the hello
// handshake is written, backing off exponentially with ±50% jitter between
// attempts. It returns nils only when the host shuts down.
func (s *sender) connect() (net.Conn, *bufio.Writer) {
	backoff := s.host.cfg.DialRetry
	for {
		if conn, bw, err := s.dialOnce(); err == nil {
			s.stats.connects.Add(1)
			return conn, bw
		} else {
			s.stats.dialErrors.Add(1)
			s.host.logf("dial %v (%s): %v (retry in ~%v)", s.to, s.addr, err, backoff)
		}
		// Full jitter around the current backoff: sleep in [b/2, 3b/2).
		sleep := backoff/2 + time.Duration(s.rng.Int63n(int64(backoff)))
		select {
		case <-s.host.stop:
			return nil, nil
		case <-time.After(sleep):
		}
		backoff *= 2
		if backoff > s.host.cfg.MaxDialRetry {
			backoff = s.host.cfg.MaxDialRetry
		}
	}
}

// dialOnce makes one connection attempt, including the handshake frame.
func (s *sender) dialOnce() (net.Conn, *bufio.Writer, error) {
	conn, err := net.DialTimeout("tcp", s.addr, dialTimeout)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriterSize(conn, senderBufSize)
	_, err = bw.Write(appendHello(nil, hello{Magic: helloMagic, From: s.host.cfg.ID}))
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, bw, nil
}
