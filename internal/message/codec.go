package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/vclock"
)

// The wire codec. A message encodes as a one-byte tag holding its Kind,
// then its fields in declaration order:
//
//	uint64 (indexes, sequence numbers, view ids)   uvarint
//	int, SiteID, GroupID, Class                    zig-zag varint
//	bool                                           one byte, 0 or 1
//	Key, Value                                     uvarint length, bytes
//	TxnID                                          site, seq
//	slice, map                                     uvarint count, elements
//	nested Message (Payload, Inner, Req)           tag (0 = nil), fields
//	*StackSync, *ShardRecovery, Held *Bcast        presence byte, fields
//
// Map entries are in no particular order. Each kind has exactly one field
// walk (coder.body). It runs in three modes — size, append, decode — so
// Size, Append and Decode cannot drift apart. Decoding checks every count
// against the bytes left before it allocates, copies every key and value
// out of the input, and bounds nesting at maxDepth.

// ErrMalformed is wrapped by every Decode failure.
var ErrMalformed = errors.New("message: malformed encoding")

// maxDepth bounds how deeply decoded messages may nest (a GroupMsg
// carrying a SnapshotChunk whose held broadcasts carry payloads is four
// deep).
const maxDepth = 8

// Decode failures. They are sentinels so that the walk, which Append
// shares, never formats an error.
var (
	errVarint = errors.New("bad varint")
	errCount  = errors.New("count exceeds the bytes left")
	errBool   = errors.New("flag byte not 0 or 1")
	errKind   = errors.New("unknown message kind")
	errDepth  = errors.New("messages nested too deeply")
	errNil    = errors.New("nil message")
)

// Append appends m's encoding to dst and returns the extended slice.
// Appending into a buffer with room allocates nothing.
//
// reprolint:noalloc
func Append(dst []byte, m Message) []byte {
	c := coder{mode: appending, buf: dst}
	c.msg(&m)
	return c.buf
}

// Size returns the exact length of m's encoding, len(Append(nil, m)).
func Size(m Message) int {
	c := coder{mode: sizing}
	c.msg(&m)
	return c.n
}

// Decode decodes one message that occupies all of b. The result shares no
// memory with b, so the caller may reuse b at once.
func Decode(b []byte) (Message, error) {
	c := coder{mode: decoding, Reader: Reader{b: b}}
	var m Message
	c.msg(&m)
	if c.err == nil && m == nil {
		c.err = errNil
	}
	if c.err == nil && len(c.b) > 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(c.b))
	}
	if c.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, c.err)
	}
	return m, nil
}

// AppendStackSync appends the encoding of s (nil included) to dst, as it
// appears inside a state transfer. Checkpoints use it for their frontiers.
func AppendStackSync(dst []byte, s *StackSync) []byte {
	c := coder{mode: appending, buf: dst}
	c.stackSync(&s)
	return c.buf
}

// AppendShardRecovery appends the encoding of sr (nil included) to dst.
func AppendShardRecovery(dst []byte, sr *ShardRecovery) []byte {
	c := coder{mode: appending, buf: dst}
	c.shardRecovery(&sr)
	return c.buf
}

// Reader consumes the codec's primitives from a byte slice. The first
// failure sticks: every later read returns a zero value, and Err reports
// it. Bytes aliases the input; the message decoders copy out of it.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns how many bytes are left.
func (r *Reader) Len() int { return len(r.b) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) > 0 && r.b[0] < 0x80 { // one byte: most lengths, counts and small ids
		v := r.b[0]
		r.b = r.b[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errVarint
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) > 0 && r.b[0] < 0x80 { // one byte: site and group ids
		u := r.b[0]
		r.b = r.b[1:]
		return int64(u>>1) ^ -int64(u&1)
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = errVarint
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bytes reads the next n bytes, aliasing the input.
func (r *Reader) Bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Count reads an element count and rejects one the bytes left cannot hold
// at minBytes per element, so no claimed count sizes an allocation the
// input cannot fill.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.b)/minBytes) {
		r.err = errCount
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// StackSync decodes what AppendStackSync encoded.
func (r *Reader) StackSync() *StackSync {
	c := coder{mode: decoding, Reader: *r}
	var s *StackSync
	c.stackSync(&s)
	*r = c.Reader
	return s
}

// ShardRecovery decodes what AppendShardRecovery encoded.
func (r *Reader) ShardRecovery() *ShardRecovery {
	c := coder{mode: decoding, Reader: *r}
	var sr *ShardRecovery
	c.shardRecovery(&sr)
	*r = c.Reader
	return sr
}

type walkMode uint8

const (
	sizing walkMode = iota
	appending
	decoding
)

// coder runs a field walk in one mode. Walk methods take pointers to the
// fields; only decoding writes through them (encoding a message shared
// by several senders must not write to it, not even the same value).
type coder struct {
	mode  walkMode
	n     int    // sizing: bytes counted so far
	buf   []byte // appending: output
	depth int    // nested messages and held broadcasts entered
	Reader
	// decoding: the last keys decoded, reused when a key repeats (a
	// commit request names each written key in Writes and again in
	// WriteKV), which saves their allocations.
	recent  [4]Key
	nrecent int
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (c *coder) u64(p *uint64) {
	switch c.mode {
	case sizing:
		c.n += uvarintLen(*p)
	case appending:
		c.buf = binary.AppendUvarint(c.buf, *p)
	default:
		*p = c.Uvarint()
	}
}

func (c *coder) i64(p *int64) {
	switch c.mode {
	case sizing:
		c.n += uvarintLen(uint64(*p<<1) ^ uint64(*p>>63))
	case appending:
		c.buf = binary.AppendVarint(c.buf, *p)
	default:
		*p = c.Varint()
	}
}

func (c *coder) int(p *int) {
	v := int64(*p)
	c.i64(&v)
	if c.mode == decoding {
		*p = int(v)
	}
}

func (c *coder) site(p *SiteID) {
	v := int64(*p)
	c.i64(&v)
	if c.mode == decoding {
		*p = SiteID(v)
	}
}

func (c *coder) group(p *GroupID) {
	v := int64(*p)
	c.i64(&v)
	if c.mode == decoding {
		*p = GroupID(v)
	}
}

func (c *coder) class(p *Class) {
	v := int64(*p)
	c.i64(&v)
	if c.mode == decoding {
		*p = Class(v)
	}
}

// bool walks a byte that must be 0 or 1: a bool field or a presence byte.
func (c *coder) bool(p *bool) {
	switch c.mode {
	case sizing:
		c.n++
	case appending:
		if *p {
			c.buf = append(c.buf, 1)
		} else {
			c.buf = append(c.buf, 0)
		}
	default:
		switch c.Byte() {
		case 0:
		case 1:
			*p = true
		default:
			c.fail(errBool)
		}
	}
}

// fail records a decode failure unless one is already recorded.
func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *coder) key(p *Key) {
	switch c.mode {
	case sizing:
		c.n += uvarintLen(uint64(len(*p))) + len(*p)
	case appending:
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*p)))
		c.buf = append(c.buf, *p...)
	default:
		b := c.Bytes(c.Uvarint())
		for _, k := range c.recent[:min(c.nrecent, len(c.recent))] {
			if string(k) == string(b) { //reprolint:allow noalloc a conversion only compared is not copied
				*p = k
				return
			}
		}
		*p = Key(b) //reprolint:allow noalloc decode only: the string conversion is the copy out of the caller's buffer
		c.recent[c.nrecent%len(c.recent)] = *p
		c.nrecent++
	}
}

func (c *coder) value(p *Value) {
	switch c.mode {
	case sizing:
		c.n += uvarintLen(uint64(len(*p))) + len(*p)
	case appending:
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*p)))
		c.buf = append(c.buf, *p...)
	default:
		if b := c.Bytes(c.Uvarint()); len(b) > 0 {
			*p = make(Value, len(b)) //reprolint:allow noalloc decode only: the copy out of the caller's buffer
			copy(*p, b)
		}
	}
}

func (c *coder) txn(p *TxnID) {
	c.site(&p.Site)
	c.u64(&p.Seq)
}

// count walks a slice or map length. Decoding returns the count read,
// checked against the bytes left at minBytes per element.
func (c *coder) count(n, minBytes int) int {
	switch c.mode {
	case sizing:
		c.n += uvarintLen(uint64(n))
	case appending:
		c.buf = binary.AppendUvarint(c.buf, uint64(n))
	default:
		return c.Count(minBytes)
	}
	return n
}

// slice walks a slice's length; decoding allocates the slice (left nil
// when empty, as gob decodes it) for the caller to walk its elements.
func slice[T any](c *coder, s *[]T, minBytes int) {
	if n := c.count(len(*s), minBytes); c.mode == decoding && n > 0 {
		*s = make([]T, n) //reprolint:allow noalloc decode only: n was checked against the bytes left
	}
}

// enter and leave bracket a nested message; decoding fails past maxDepth.
func (c *coder) enter() bool {
	if c.mode == decoding && c.depth == maxDepth {
		c.fail(errDepth)
		return false
	}
	c.depth++
	return true
}

func (c *coder) leave() { c.depth-- }

// msg walks a tagged message; tag 0 is a nil message.
func (c *coder) msg(p *Message) {
	var tag uint64
	if *p != nil {
		tag = uint64((*p).Kind())
	}
	switch c.mode {
	case sizing:
		c.n++
	case appending:
		c.buf = append(c.buf, byte(tag))
	default:
		tag = uint64(c.Byte())
		if tag != 0 && c.err == nil {
			*p = newMessage(Kind(tag)) //reprolint:allow noalloc nested-payload dispatch, decode only: a fresh message per tag
			if *p == nil {
				c.fail(errKind)
			}
		}
	}
	if *p == nil || c.err != nil || !c.enter() {
		return
	}
	c.body(*p)
	c.leave()
}

// bcastPtr walks a held broadcast behind a presence byte.
func (c *coder) bcastPtr(p **Bcast) {
	present := *p != nil
	c.bool(&present)
	if !present || c.err != nil || !c.enter() {
		return
	}
	if c.mode == decoding {
		*p = new(Bcast) //reprolint:allow noalloc nested-payload dispatch, decode only
	}
	c.bcast(*p)
	c.leave()
}

func (c *coder) bcast(t *Bcast) {
	c.class(&t.Class)
	c.site(&t.Origin)
	c.u64(&t.Seq)
	c.vc(&t.VC)
	c.msg(&t.Payload)
	c.bool(&t.Relayed)
	c.txn(&t.Trace)
}

func (c *coder) vc(p *vclock.VC) {
	slice(c, (*[]uint64)(p), 1)
	for i := range *p {
		c.u64(&(*p)[i])
	}
}

func (c *coder) sites(p *[]SiteID) {
	slice(c, p, 1)
	for i := range *p {
		c.site(&(*p)[i])
	}
}

func (c *coder) groups(p *[]GroupID) {
	slice(c, p, 1)
	for i := range *p {
		c.group(&(*p)[i])
	}
}

func (c *coder) keys(p *[]Key) {
	slice(c, p, 1)
	for i := range *p {
		c.key(&(*p)[i])
	}
}

func (c *coder) txns(p *[]TxnID) {
	slice(c, p, 2)
	for i := range *p {
		c.txn(&(*p)[i])
	}
}

func (c *coder) keyVers(p *[]KeyVer) {
	slice(c, p, 2)
	for i := range *p {
		kv := &(*p)[i]
		c.key(&kv.Key)
		c.u64(&kv.Ver)
	}
}

func (c *coder) kvs(p *[]KV) {
	slice(c, p, 2)
	for i := range *p {
		kv := &(*p)[i]
		c.key(&kv.Key)
		c.value(&kv.Value)
	}
}

func (c *coder) orderEntries(p *[]OrderEntry) {
	slice(c, p, 3)
	for i := range *p {
		e := &(*p)[i]
		c.site(&e.Origin)
		c.u64(&e.Seq)
		c.u64(&e.Index)
	}
}

func (c *coder) view(v *View) {
	c.u64(&v.ID)
	c.sites(&v.Members)
}

func (c *coder) snapshotEntries(p *[]SnapshotEntry) {
	slice(c, p, 3)
	for i := range *p {
		e := &(*p)[i]
		c.key(&e.Key)
		slice(c, &e.Versions, 4)
		for j := range e.Versions {
			v := &e.Versions[j]
			c.u64(&v.Index)
			c.txn(&v.Writer)
			c.value(&v.Value)
		}
		c.bool(&e.Replace)
	}
}

// siteSeqs walks a per-site sequence map. Maps walk their entries through
// the same field calls in both directions: ranging when encoding, reading
// count entries when decoding.
func (c *coder) siteSeqs(p *map[SiteID]uint64) {
	n := c.count(len(*p), 2)
	if c.mode != decoding {
		for k, v := range *p {
			c.site(&k)
			c.u64(&v)
		}
		return
	}
	if n == 0 {
		return
	}
	m := make(map[SiteID]uint64, n) //reprolint:allow noalloc decode only: n was checked against the bytes left
	for i := 0; i < n; i++ {
		var k SiteID
		var v uint64
		c.site(&k)
		c.u64(&v)
		m[k] = v //reprolint:allow noalloc decode only, into the map sized above
	}
	*p = m
}

func (c *coder) classSeqs(p *map[Class]map[SiteID]uint64) {
	n := c.count(len(*p), 2)
	if c.mode != decoding {
		for k, v := range *p {
			c.class(&k)
			c.siteSeqs(&v)
		}
		return
	}
	if n == 0 {
		return
	}
	m := make(map[Class]map[SiteID]uint64, n) //reprolint:allow noalloc decode only: n was checked against the bytes left
	for i := 0; i < n; i++ {
		var k Class
		var v map[SiteID]uint64
		c.class(&k)
		c.siteSeqs(&v)
		m[k] = v //reprolint:allow noalloc decode only, into the map sized above
	}
	*p = m
}

func (c *coder) pending(p *map[TxnID][]KV) {
	n := c.count(len(*p), 3)
	if c.mode != decoding {
		for k, v := range *p {
			c.txn(&k)
			c.kvs(&v)
		}
		return
	}
	if n == 0 {
		return
	}
	m := make(map[TxnID][]KV, n) //reprolint:allow noalloc decode only: n was checked against the bytes left
	for i := 0; i < n; i++ {
		var k TxnID
		var v []KV
		c.txn(&k)
		c.kvs(&v)
		m[k] = v //reprolint:allow noalloc decode only, into the map sized above
	}
	*p = m
}

func (c *coder) stackSync(p **StackSync) {
	present := *p != nil
	c.bool(&present)
	if !present || c.err != nil {
		return
	}
	if c.mode == decoding {
		*p = new(StackSync) //reprolint:allow noalloc decode only
	}
	s := *p
	c.vc(&s.CausalVC)
	c.siteSeqs(&s.FifoNext)
	c.classSeqs(&s.HighSeq)
	slice(c, &s.Held, 1)
	for i := range s.Held {
		c.bcastPtr(&s.Held[i])
	}
}

func (c *coder) shardRecovery(p **ShardRecovery) {
	present := *p != nil
	c.bool(&present)
	if !present || c.err != nil {
		return
	}
	if c.mode == decoding {
		*p = new(ShardRecovery) //reprolint:allow noalloc decode only
	}
	sr := *p
	slice(c, &sr.Prepared, 8)
	for i := range sr.Prepared {
		ps := &sr.Prepared[i]
		c.txn(&ps.Txn)
		c.u64(&ps.Index)
		c.bool(&ps.Vote)
		c.site(&ps.Coord)
		c.groups(&ps.Groups)
		c.keys(&ps.Keys)
		c.kvs(&ps.Writes)
	}
	slice(c, &sr.Decided, 3)
	for i := range sr.Decided {
		c.txn(&sr.Decided[i].Txn)
		c.bool(&sr.Decided[i].Commit)
	}
	c.txns(&sr.Fenced)
}

// body is the field walk of every message kind, in declaration order.
func (c *coder) body(m Message) {
	switch t := m.(type) {
	case *Bcast:
		c.bcast(t)
	case *SeqOrder:
		c.site(&t.Sequencer)
		c.orderEntries(&t.Entries)
	case *BatchOrder:
		c.site(&t.Leader)
		c.u64(&t.Instance)
		c.orderEntries(&t.Entries)
	case *IsisPropose:
		c.site(&t.Origin)
		c.u64(&t.Seq)
		c.site(&t.Proposer)
		c.u64(&t.TS)
	case *IsisFinal:
		c.site(&t.Origin)
		c.u64(&t.Seq)
		c.u64(&t.TS)
		c.site(&t.Tie)
	case *Heartbeat:
		c.site(&t.From)
		c.u64(&t.ViewID)
	case *ViewPropose:
		c.site(&t.Proposer)
		c.view(&t.View)
	case *ViewAck:
		c.site(&t.By)
		c.u64(&t.ViewID)
	case *ViewInstall:
		c.view(&t.View)
	case *StateRequest:
		c.site(&t.From)
		c.u64(&t.HaveIndex)
	case *StateSnapshot:
		c.site(&t.From)
		c.u64(&t.Applied)
		c.snapshotEntries(&t.Entries)
		c.stackSync(&t.Stack)
		c.pending(&t.Pending)
	case *SnapshotChunk:
		c.site(&t.From)
		c.u64(&t.Applied)
		c.u64(&t.Since)
		c.int(&t.Seq)
		c.bool(&t.Last)
		c.snapshotEntries(&t.Entries)
		c.stackSync(&t.Stack)
		c.pending(&t.Pending)
		c.shardRecovery(&t.Shard)
	case *SyncState:
		c.site(&t.From)
		c.stackSync(&t.Stack)
		c.pending(&t.Pending)
	case *RetransmitReq:
		c.site(&t.From)
		c.u64(&t.FromIndex)
		c.u64(&t.Applied)
	case *WriteReq:
		c.txn(&t.Txn)
		c.int(&t.OpSeq)
		c.key(&t.Key)
		c.value(&t.Value)
	case *WriteAck:
		c.txn(&t.Txn)
		c.int(&t.OpSeq)
		c.site(&t.By)
		c.bool(&t.OK)
	case *TxnNack:
		c.txn(&t.Txn)
		c.site(&t.By)
		c.key(&t.Key)
	case *VoteReq:
		c.txn(&t.Txn)
	case *Vote:
		c.txn(&t.Txn)
		c.site(&t.By)
		c.bool(&t.Yes)
	case *Decision:
		c.txn(&t.Txn)
		c.bool(&t.Commit)
		c.int(&t.NOps)
	case *CommitReq:
		c.txn(&t.Txn)
		c.keyVers(&t.Reads)
		c.keyVers(&t.Writes)
		c.int(&t.NWrites)
		c.kvs(&t.WriteKV)
	case *CausalNull:
		c.site(&t.From)
	case *WriteBatch:
		c.txn(&t.Txn)
		c.kvs(&t.Writes)
	case *UWrite:
		c.txn(&t.Txn)
		c.int(&t.OpSeq)
		c.key(&t.Key)
		c.value(&t.Value)
	case *UWriteAck:
		c.txn(&t.Txn)
		c.int(&t.OpSeq)
		c.site(&t.By)
		c.bool(&t.OK)
	case *Wound:
		c.txn(&t.Txn)
		c.site(&t.By)
	case *Prepare:
		c.txn(&t.Txn)
	case *PrepareVote:
		c.txn(&t.Txn)
		c.site(&t.By)
		c.bool(&t.Yes)
	case *PDecision:
		c.txn(&t.Txn)
		c.bool(&t.Commit)
	case *QReadReq:
		c.txn(&t.Txn)
		c.int(&t.Seq)
		c.key(&t.Key)
	case *QReadReply:
		c.txn(&t.Txn)
		c.int(&t.Seq)
		c.key(&t.Key)
		c.site(&t.From)
		c.u64(&t.Ver)
		c.txn(&t.Writer)
		c.value(&t.Value)
		c.bool(&t.Found)
	case *QLockReq:
		c.txn(&t.Txn)
		c.keys(&t.Keys)
	case *QLockReply:
		c.txn(&t.Txn)
		c.site(&t.From)
		c.keyVers(&t.Vers)
	case *QCommit:
		c.txn(&t.Txn)
		c.kvs(&t.Writes)
		c.keyVers(&t.Vers)
	case *QRelease:
		c.txn(&t.Txn)
	case *GroupMsg:
		c.group(&t.Group)
		c.msg(&t.Inner)
	case *ShardPrepare:
		c.txn(&t.Txn)
		c.group(&t.Group)
		c.site(&t.Coord)
		c.groups(&t.Groups)
		c.keyVers(&t.Reads)
		c.kvs(&t.WriteKV)
	case *ShardVote:
		c.txn(&t.Txn)
		c.group(&t.Group)
		c.site(&t.By)
		c.bool(&t.Yes)
	case *ShardDecision:
		c.txn(&t.Txn)
		c.group(&t.Group)
		c.bool(&t.Commit)
	case *ShardForward:
		c.group(&t.Group)
		c.msg(&t.Req)
	case *ShardOutcome:
		c.txn(&t.Txn)
		c.group(&t.Group)
		c.bool(&t.Commit)
	case *CoordQuery:
		c.txn(&t.Txn)
		c.group(&t.Group)
		c.site(&t.From)
	case *CoordStatus:
		c.txn(&t.Txn)
		c.group(&t.Group)
		c.site(&t.By)
		c.bool(&t.Decided)
		c.bool(&t.Outcome)
		c.bool(&t.Prepared)
		c.bool(&t.Vote)
	default:
		c.fail(errKind)
	}
}

// newMessage returns a zero message of kind k, or nil for an unknown kind.
func newMessage(k Kind) Message {
	switch k {
	case KindBcast:
		return new(Bcast)
	case KindSeqOrder:
		return new(SeqOrder)
	case KindBatchOrder:
		return new(BatchOrder)
	case KindIsisPropose:
		return new(IsisPropose)
	case KindIsisFinal:
		return new(IsisFinal)
	case KindHeartbeat:
		return new(Heartbeat)
	case KindViewPropose:
		return new(ViewPropose)
	case KindViewAck:
		return new(ViewAck)
	case KindViewInstall:
		return new(ViewInstall)
	case KindStateRequest:
		return new(StateRequest)
	case KindStateSnapshot:
		return new(StateSnapshot)
	case KindSnapshotChunk:
		return new(SnapshotChunk)
	case KindSyncState:
		return new(SyncState)
	case KindRetransmitReq:
		return new(RetransmitReq)
	case KindWriteReq:
		return new(WriteReq)
	case KindWriteAck:
		return new(WriteAck)
	case KindTxnNack:
		return new(TxnNack)
	case KindVoteReq:
		return new(VoteReq)
	case KindVote:
		return new(Vote)
	case KindDecision:
		return new(Decision)
	case KindCommitReq:
		return new(CommitReq)
	case KindCausalNull:
		return new(CausalNull)
	case KindWriteBatch:
		return new(WriteBatch)
	case KindUWrite:
		return new(UWrite)
	case KindUWriteAck:
		return new(UWriteAck)
	case KindWound:
		return new(Wound)
	case KindPrepare:
		return new(Prepare)
	case KindPrepareVote:
		return new(PrepareVote)
	case KindPDecision:
		return new(PDecision)
	case KindQReadReq:
		return new(QReadReq)
	case KindQReadReply:
		return new(QReadReply)
	case KindQLockReq:
		return new(QLockReq)
	case KindQLockReply:
		return new(QLockReply)
	case KindQCommit:
		return new(QCommit)
	case KindQRelease:
		return new(QRelease)
	case KindGroupMsg:
		return new(GroupMsg)
	case KindShardPrepare:
		return new(ShardPrepare)
	case KindShardVote:
		return new(ShardVote)
	case KindShardDecision:
		return new(ShardDecision)
	case KindShardForward:
		return new(ShardForward)
	case KindShardOutcome:
		return new(ShardOutcome)
	case KindCoordQuery:
		return new(CoordQuery)
	case KindCoordStatus:
		return new(CoordStatus)
	}
	return nil
}
