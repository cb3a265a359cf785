package livenet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/message"
)

// Wire format. A connection opens with a fixed 8-byte hello: the magic
// "RDB2" and the dialer's site id as a big-endian int32. Every frame after
// it is a uvarint body length followed by the body, one message in the
// binary codec (message.Append). The old gob transport opened with a gob
// stream, which fails the magic check, so a peer from before the codec is
// refused at the handshake rather than misread.
const (
	// helloMagic guards against cross-protocol connections (a stray HTTP
	// client, a peer speaking an older wire format) being mistaken for
	// peers.
	helloMagic = 0x52444232 // "RDB2"
	helloBytes = 8
	// maxFrameBytes caps one frame's claimed body length. The largest
	// frames are state transfers, whose chunks are bounded near 64 KiB;
	// a longer claim is a broken or hostile peer, and its connection is
	// closed before anything is allocated for it.
	maxFrameBytes = 64 << 20
	// readBufBytes sizes the reader in front of each inbound connection,
	// and the step by which a frame buffer grows while its bytes arrive.
	readBufBytes = 64 << 10
)

// errFrameTooLarge is returned for a frame claiming more than
// maxFrameBytes.
var errFrameTooLarge = errors.New("frame exceeds the size cap")

// hello is the first frame on every outbound connection: it authenticates
// the stream as a peer of this cluster and identifies the dialer. All
// frames that follow are attributed to this identity.
type hello struct {
	Magic uint32
	From  message.SiteID
}

func appendHello(dst []byte, h hello) []byte {
	dst = binary.BigEndian.AppendUint32(dst, h.Magic)
	return binary.BigEndian.AppendUint32(dst, uint32(h.From))
}

func readHello(r io.Reader) (hello, error) {
	var b [helloBytes]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return hello{}, err
	}
	return hello{
		Magic: binary.BigEndian.Uint32(b[:4]),
		From:  message.SiteID(int32(binary.BigEndian.Uint32(b[4:]))),
	}, nil
}

// appendFrame appends m as one frame.
func appendFrame(dst []byte, m message.Message) []byte {
	dst = binary.AppendUvarint(dst, uint64(message.Size(m)))
	return message.Append(dst, m)
}

// readFrame reads one frame body into buf, reusing its capacity, and
// returns it. The buffer grows only as the body's bytes arrive, so a
// claimed length costs memory only once the peer has actually sent it.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return buf, err
	}
	if n > maxFrameBytes {
		return buf, fmt.Errorf("%w: %d bytes", errFrameTooLarge, n)
	}
	buf = buf[:0]
	for len(buf) < int(n) {
		step := min(int(n)-len(buf), readBufBytes)
		buf = slices.Grow(buf, step)
		start := len(buf)
		buf = buf[:start+step]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			if err == io.EOF { // the stream ended inside a frame: a truncation, not a clean close
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}
