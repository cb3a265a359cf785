package livenet

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/message"
)

// oldGobHello is what a peer running the gob transport sent first: the
// gob stream of hello{Magic: 0x52444231 ("RDB1"), From: 1}.
var oldGobHello = []byte{
	0x25, 0x7f, 0x03, 0x01, 0x01, 0x05, 0x68, 0x65, 0x6c, 0x6c, 0x6f, 0x01,
	0xff, 0x80, 0x00, 0x01, 0x02, 0x01, 0x05, 0x4d, 0x61, 0x67, 0x69, 0x63,
	0x01, 0x06, 0x00, 0x01, 0x04, 0x46, 0x72, 0x6f, 0x6d, 0x01, 0x04, 0x00,
	0x00, 0x00, 0x0b, 0xff, 0x80, 0x01, 0xfc, 0x52, 0x44, 0x42, 0x31, 0x01,
	0x02, 0x00,
}

// startWireHost boots site 0 of a three-site address map whose other sites
// are never started; tests dial it as raw peers 1 and 2.
func startWireHost(t *testing.T) (*Host, *captureNode) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[message.SiteID]string{0: ln.Addr().String(), 1: "127.0.0.1:1", 2: "127.0.0.1:1"}
	host, node := startRawHost(t, 0, addrs, ln)
	t.Cleanup(host.Close)
	return host, node
}

// dialRaw connects to host and writes b.
func dialRaw(t *testing.T, host *Host, b []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", host.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	return conn
}

// peerBytes is a handshake as site from followed by frames of msgs.
func peerBytes(from message.SiteID, msgs ...message.Message) []byte {
	b := appendHello(nil, hello{Magic: helloMagic, From: from})
	for _, m := range msgs {
		b = appendFrame(b, m)
	}
	return b
}

// waitClosed fails unless the host closes conn.
func waitClosed(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("%s: connection not closed", what)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("%s: connection still open after 10s", what)
	}
}

// waitCount polls until node has heard n messages from id.
func waitCount(t *testing.T, node *captureNode, id message.SiteID, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for node.countFrom(id) < n {
		if time.Now().After(deadline) {
			t.Fatalf("heard %d messages from site %v, want %d", node.countFrom(id), id, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOldGobHelloRejected: a peer still speaking the gob transport fails
// the handshake and is disconnected, and the accept loop goes on
// admitting current peers.
func TestOldGobHelloRejected(t *testing.T) {
	host, node := startWireHost(t)
	waitClosed(t, dialRaw(t, host, oldGobHello), "gob hello")
	if got := node.countFrom(1); got != 0 {
		t.Fatalf("gob peer delivered %d messages", got)
	}
	dialRaw(t, host, peerBytes(1, &message.Heartbeat{From: 1}))
	waitCount(t, node, 1, 1)
}

// TestOversizedFrameClosesConnection: a frame claiming more than the cap
// closes its connection without the claimed size being allocated, and so
// does a claim under the cap whose bytes never arrive; a healthy
// connection from another peer keeps delivering throughout.
func TestOversizedFrameClosesConnection(t *testing.T) {
	host, node := startWireHost(t)
	healthy := dialRaw(t, host, peerBytes(2, &message.Heartbeat{From: 2}))
	waitCount(t, node, 2, 1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	over := binary.AppendUvarint(peerBytes(1), maxFrameBytes+1)
	waitClosed(t, dialRaw(t, host, over), "over the cap")
	under := binary.AppendUvarint(peerBytes(1), maxFrameBytes-1)
	conn := dialRaw(t, host, append(under, make([]byte, 1000)...))
	conn.(*net.TCPConn).CloseWrite()
	waitClosed(t, conn, "short body")
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrameBytes/4 {
		t.Fatalf("two bad frames claiming %d bytes allocated %d", maxFrameBytes, grew)
	}
	if got := node.countFrom(1); got != 0 {
		t.Fatalf("bad frames delivered %d messages", got)
	}

	if _, err := healthy.Write(appendFrame(nil, &message.Heartbeat{From: 2})); err != nil {
		t.Fatal(err)
	}
	waitCount(t, node, 2, 2)
}

// TestCorruptFrameEndsConnection: a frame whose body does not decode ends
// that connection only; frames before it were delivered, and another
// peer's connection is unaffected.
func TestCorruptFrameEndsConnection(t *testing.T) {
	host, node := startWireHost(t)
	healthy := dialRaw(t, host, peerBytes(2))
	b := peerBytes(1, &message.Heartbeat{From: 1})
	b = append(b, 3, 200, 0, 0) // a 3-byte frame of an unknown kind
	b = appendFrame(b, &message.Heartbeat{From: 1})
	waitClosed(t, dialRaw(t, host, b), "corrupt body")
	if got := node.countFrom(1); got != 1 {
		t.Fatalf("delivered %d messages from the corrupt stream, want the 1 before the bad frame", got)
	}
	if _, err := healthy.Write(appendFrame(nil, &message.Heartbeat{From: 2})); err != nil {
		t.Fatal(err)
	}
	waitCount(t, node, 2, 1)
}
