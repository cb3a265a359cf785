// Package checkpoint persists durable snapshots of a site's store and
// broadcast-stack frontiers, truncates the fully-checkpointed prefix of the
// segmented WAL, and recovers a restarted site from its newest checkpoint
// plus only the WAL suffix — O(delta) restart instead of full-log replay.
//
// Checkpoint files live in the same directory as the WAL segments
// (ckpt-*.ckpt beside wal-*.seg) so the two halves of a site's durable
// state cannot drift apart operationally. A checkpoint is written to a
// temporary file, fsynced, atomically renamed into place, and the directory
// fsynced — a crash mid-write leaves only a *.tmp orphan that loading
// skips and cmd/walcheck flags. Truncation deletes only sealed WAL
// segments whose every record index is covered by the checkpoint; replay
// after recovery skips records at or below the checkpoint's applied index,
// which makes the crash window between rename and truncation idempotent.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/message"
	"repro/internal/storage"
)

// ErrCorrupt is returned when a checkpoint file fails its magic, length, or
// checksum validation.
var ErrCorrupt = errors.New("checkpoint: corrupt file")

// File format. Every checkpoint starts with a 16-byte header: an 8-byte
// magic ("rpCK" + big-endian format version), the body length, and the
// body's CRC32 (both little-endian uint32).
//
// Version 3 (written now): the body is the uvarint-length-prefixed meta
// part, then a uvarint entry count and the entries in a varint binary
// layout:
//
//	meta:     uvarint applied, then the stack frontiers and the shard
//	          state in the message codec (message.AppendStackSync,
//	          message.AppendShardRecovery)
//	key:      uvarint len, bytes
//	replace:  1 byte (0 or 1)
//	versions: uvarint count, then per version
//	          uvarint index, varint site, uvarint seq, uvarint len, value
//
// Entries are in no particular order (Restore builds a map). Write streams
// the body straight into the file and back-fills the header.
//
// Versions 1 and 2 are read only, so directories written before version 3
// still recover. Version 2 is version 3 with a gob-encoded meta part;
// version 1's body is one gob-encoded Checkpoint.
var (
	magicV1 = [8]byte{'r', 'p', 'C', 'K', 0, 0, 0, 1}
	magicV2 = [8]byte{'r', 'p', 'C', 'K', 0, 0, 0, 2}
	magicV3 = [8]byte{'r', 'p', 'C', 'K', 0, 0, 0, 3}
)

const headerBytes = 16

// Checkpoint is the durable unit: the store's full state at an applied
// commit index plus the broadcast stack's progress frontiers, so a
// restarted site resumes both its database and its delivery machinery.
type Checkpoint struct {
	Applied uint64
	Entries []message.SnapshotEntry
	// Stack is nil for engines without a broadcast stack (baseline,
	// quorum).
	Stack *message.StackSync
	// Shard is the group's cross-shard certification state under partial
	// replication (nil elsewhere): certified-undecided prepares survive a
	// restart through it, so a crashed member's orphaned prepares can
	// still be terminated.
	Shard *message.ShardRecovery
	// Format is the file format version Read found (1, 2 or 3). It is not
	// persisted; Write always writes the current version.
	Format int
}

// metaV2 is the gob-encoded head of a version-2 body: everything except the
// entries.
type metaV2 struct {
	Applied uint64
	Stack   *message.StackSync
	Shard   *message.ShardRecovery
}

// filePath names the checkpoint at applied index idx inside dir. The index
// is zero-padded hex so lexical order is numeric order.
func filePath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016x.ckpt", idx))
}

// Files returns dir's completed checkpoint files in ascending applied-index
// order.
func Files(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// TempFiles returns orphaned in-progress checkpoint files (crash
// mid-write). Loading ignores them; walcheck reports them.
func TempFiles(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt.tmp"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// IndexOf parses the applied index out of a checkpoint file name.
func IndexOf(path string) (uint64, error) {
	var idx uint64
	if _, err := fmt.Sscanf(filepath.Base(path), "ckpt-%016x.ckpt", &idx); err != nil {
		return 0, fmt.Errorf("checkpoint: bad file name %q", filepath.Base(path))
	}
	return idx, nil
}

// Write persists ck into dir in the current format: stream the body to a
// temp file, back-fill the header, fsync, rename into place, fsync the
// directory. Returns the final path and the file's size in bytes.
func Write(dir string, ck *Checkpoint) (string, int64, error) {
	return writeFile(dir, ck.Applied, encodeMeta(ck), ck.Entries)
}

// encodeMeta encodes the part of ck that is not its entries. The
// checkpointer runs it on the event loop: unlike the entries, whose store
// only ever appends past them, the stack and shard exports may share state
// the engine goes on mutating.
func encodeMeta(ck *Checkpoint) []byte {
	b := binary.AppendUvarint(nil, ck.Applied)
	b = message.AppendStackSync(b, ck.Stack)
	return message.AppendShardRecovery(b, ck.Shard)
}

// writeBufBytes sizes the buffer the body streams through; yieldBytes is
// how much body writeBody encodes between yields of its processor.
const (
	writeBufBytes = 256 << 10
	yieldBytes    = 64 << 10
)

// writeFile writes a version-3 checkpoint at applied from an encoded meta
// part and the entries, never holding the whole body in memory.
func writeFile(dir string, applied uint64, head []byte, entries []message.SnapshotEntry) (string, int64, error) {
	final := filePath(dir, applied)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", 0, err
	}
	_, err = f.Seek(headerBytes, io.SeekStart)
	var n int64
	var sum uint32
	if err == nil {
		n, sum, err = writeBody(f, head, entries)
	}
	if err == nil && n > math.MaxUint32 {
		err = fmt.Errorf("checkpoint: body of %d bytes exceeds the format's 4 GiB limit", n)
	}
	if err == nil {
		var hdr [headerBytes]byte
		copy(hdr[:8], magicV3[:])
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(n))
		binary.LittleEndian.PutUint32(hdr[12:16], sum)
		_, err = f.WriteAt(hdr[:], 0)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", 0, err
	}
	if err := syncDir(dir); err != nil {
		return final, 0, err
	}
	return final, headerBytes + n, nil
}

// writeBody streams a body into w through one buffer, returning its length
// and CRC32.
func writeBody(w io.Writer, head []byte, entries []message.SnapshotEntry) (int64, uint32, error) {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), writeBufBytes)
	b := bw.AvailableBuffer()
	b = binary.AppendUvarint(b, uint64(len(head)))
	b = append(b, head...)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	n := int64(len(b))
	var yielded int64
	if _, err := bw.Write(b); err != nil {
		return 0, 0, err
	}
	for i := range entries {
		e := &entries[i]
		b = bw.AvailableBuffer()
		b = binary.AppendUvarint(b, uint64(len(e.Key)))
		b = append(b, e.Key...)
		if e.Replace {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(len(e.Versions)))
		for _, v := range e.Versions {
			b = binary.AppendUvarint(b, v.Index)
			b = binary.AppendVarint(b, int64(v.Writer.Site))
			b = binary.AppendUvarint(b, v.Writer.Seq)
			b = binary.AppendUvarint(b, uint64(len(v.Value)))
			b = append(b, v.Value...)
		}
		n += int64(len(b))
		if _, err := bw.Write(b); err != nil {
			return 0, 0, err
		}
		if n-yielded >= yieldBytes {
			// Off the loop, the encoder competes with the event loops for
			// the processors; yielding bounds how long a loop goroutine
			// that became runnable waits behind it.
			runtime.Gosched()
			yielded = n
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, 0, err
	}
	return n, crc.Sum32(), nil
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Read loads and validates one checkpoint file of any format version. A
// header that claims more body than the file holds is rejected before
// anything is allocated, and a version-3 body allocates nothing in
// proportion to a count it claims but does not contain. The gob parts of
// the older versions (a version-1 body, the version-2 meta) trust the
// checksum: it guards against corruption, not forgery.
func Read(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return read(f, fi.Size())
}

// read decodes a checkpoint file of fileSize bytes from r.
func read(r io.Reader, fileSize int64) (*Checkpoint, error) {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header (%v)", ErrCorrupt, err)
	}
	var magic [8]byte
	copy(magic[:], hdr[:8])
	if magic != magicV1 && magic != magicV2 && magic != magicV3 {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	size := int64(binary.LittleEndian.Uint32(hdr[8:12]))
	sum := binary.LittleEndian.Uint32(hdr[12:16])
	if size > fileSize-headerBytes {
		return nil, fmt.Errorf("%w: short body (header claims %d bytes, file holds %d)", ErrCorrupt, size, fileSize-headerBytes)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: short body (%v)", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return decodeBody(magic, body)
}

// decodeBody decodes a checksum-verified body of the version magic names.
func decodeBody(magic [8]byte, body []byte) (*Checkpoint, error) {
	if magic == magicV1 {
		return decodeV1(body)
	}
	return decodeEntries(magic, body)
}

// decodeV1 decodes a version-1 (whole-gob) body.
func decodeV1(body []byte) (*Checkpoint, error) {
	message.RegisterGob()
	ck := new(Checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(ck); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	ck.Format = 1
	return ck, nil
}

// decodeMeta decodes the meta part of a version-2 (gob) or version-3 body.
func decodeMeta(magic [8]byte, head []byte) (*Checkpoint, error) {
	if magic == magicV2 {
		message.RegisterGob()
		var m metaV2
		if err := gob.NewDecoder(bytes.NewReader(head)).Decode(&m); err != nil {
			return nil, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
		}
		return &Checkpoint{Applied: m.Applied, Stack: m.Stack, Shard: m.Shard, Format: 2}, nil
	}
	r := message.NewReader(head)
	ck := &Checkpoint{Applied: r.Uvarint(), Stack: r.StackSync(), Shard: r.ShardRecovery(), Format: 3}
	if r.Err() != nil {
		return nil, corrupt("meta", r.Err())
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing meta bytes", ErrCorrupt, r.Len())
	}
	return ck, nil
}

// decodeEntries decodes a version-2 or version-3 body. Version values
// alias body (one allocation for all of them); keys are copied into
// strings.
func decodeEntries(magic [8]byte, body []byte) (*Checkpoint, error) {
	r := message.NewReader(body)
	head := r.Bytes(r.Uvarint())
	if r.Err() != nil {
		return nil, corrupt("meta length", r.Err())
	}
	ck, err := decodeMeta(magic, head)
	if err != nil {
		return nil, err
	}
	// An entry takes at least 3 bytes (key length, replace flag, version
	// count), a version at least 4: counts beyond what the remaining body
	// could hold are corruption, not allocation requests.
	n := r.Count(3)
	if r.Err() != nil {
		return nil, corrupt("entry count", r.Err())
	}
	if n > 0 { // empty stays nil, as gob decodes it
		ck.Entries = make([]message.SnapshotEntry, n)
	}
	for i := range ck.Entries {
		e := &ck.Entries[i]
		e.Key = message.Key(r.Bytes(r.Uvarint()))
		switch flag := r.Byte(); flag {
		case 0:
		case 1:
			e.Replace = true
		default:
			if r.Err() == nil {
				return nil, fmt.Errorf("%w: entry %d: replace flag %d", ErrCorrupt, i, flag)
			}
		}
		nv := r.Count(4)
		if r.Err() != nil {
			return nil, corrupt(fmt.Sprintf("entry %d", i), r.Err())
		}
		if nv > 0 {
			e.Versions = make([]message.VersionRec, nv)
		}
		for j := range e.Versions {
			v := &e.Versions[j]
			v.Index = r.Uvarint()
			v.Writer.Site = message.SiteID(r.Varint())
			v.Writer.Seq = r.Uvarint()
			if val := r.Bytes(r.Uvarint()); len(val) > 0 {
				v.Value = message.Value(val)
			}
		}
		if r.Err() != nil {
			return nil, corrupt(fmt.Sprintf("entry %d", i), r.Err())
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing body bytes", ErrCorrupt, r.Len())
	}
	return ck, nil
}

func corrupt(what string, err error) error {
	return fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
}

// Latest loads the newest valid checkpoint in dir, skipping corrupt or
// partial files (a torn newer checkpoint falls back to the previous one).
// Returns (nil, "", nil) when no valid checkpoint exists.
func Latest(dir string) (*Checkpoint, string, error) {
	files, err := Files(dir)
	if err != nil {
		return nil, "", err
	}
	for i := len(files) - 1; i >= 0; i-- {
		ck, err := Read(files[i])
		if err == nil {
			return ck, files[i], nil
		}
		if !errors.Is(err, ErrCorrupt) {
			return nil, "", err
		}
	}
	return nil, "", nil
}

// Prune deletes completed checkpoints beyond the retain newest, oldest
// first, plus any orphaned temp files. Returns how many files it removed.
func Prune(dir string, retain int) (int, error) {
	if retain < 1 {
		retain = 1
	}
	files, err := Files(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for len(files) > retain {
		if err := os.Remove(files[0]); err != nil {
			return removed, err
		}
		removed++
		files = files[1:]
	}
	tmps, err := TempFiles(dir)
	if err != nil {
		return removed, err
	}
	for _, t := range tmps {
		if err := os.Remove(t); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// RecoverInfo reports what recovery found and did.
type RecoverInfo struct {
	CheckpointIndex uint64 // applied index of the checkpoint used (0 = none)
	CheckpointPath  string // "" when no checkpoint was found
	Stack           *message.StackSync
	Shard           *message.ShardRecovery // cross-shard state (sharded groups)
	Replayed        int                    // WAL records applied above the checkpoint
	Skipped         int                    // WAL records at or below the checkpoint (overlap)
}

// Recover rebuilds a site's store from the newest valid checkpoint in dir
// plus the WAL suffix above it, truncates any torn WAL tail, and reopens
// the segmented log for appending. Records at or below the checkpoint's
// applied index are skipped, which makes replay idempotent over the
// rename-before-truncation crash window. With no valid checkpoint the
// whole log replays (equivalent to storage.RecoverSegments).
func Recover(dir string, maxBytes int64) (*storage.Store, *storage.WAL, *RecoverInfo, error) {
	info := &RecoverInfo{}
	st := storage.New(nil) // replay must not re-log
	ck, path, err := Latest(dir)
	if err != nil {
		return nil, nil, info, err
	}
	if ck != nil {
		st.Restore(ck.Entries, ck.Applied)
		info.CheckpointIndex = ck.Applied
		info.CheckpointPath = path
		info.Stack = ck.Stack
		info.Shard = ck.Shard
	}
	floor := info.CheckpointIndex
	lastPath, validOff, err := storage.ReplaySegmentsPrefix(dir, func(r storage.Record) error {
		if r.Index <= floor {
			info.Skipped++
			return nil
		}
		info.Replayed++
		return st.Apply(r.Txn, r.Writes, r.Index)
	})
	if err != nil {
		return st, nil, info, err
	}
	if lastPath != "" {
		if err := storage.TruncateTail(lastPath, validOff); err != nil {
			return st, nil, info, err
		}
	}
	w, err := storage.OpenSegments(dir, maxBytes)
	if err != nil {
		return st, nil, info, err
	}
	st.SetWAL(w)
	return st, w, info, nil
}

// Policy configures a Checkpointer. A zero Dir disables checkpointing.
type Policy struct {
	// Dir is where checkpoints (and the WAL segments they truncate) live.
	Dir string
	// Interval is the periodic trigger (0 disables the timer; bytes can
	// still trigger).
	Interval time.Duration
	// MaxWALBytes triggers a checkpoint once that many bytes have been
	// appended to the WAL since the last one (0 = no bytes trigger).
	MaxWALBytes int64
	// Retain is how many completed checkpoints Prune keeps (min 1).
	Retain int
}

// Enabled reports whether the policy names a checkpoint directory.
func (p Policy) Enabled() bool { return p.Dir != "" }

// Source is how the checkpointer reads the engine's state. Every hook runs
// on the site's event loop, so no locking is needed.
type Source struct {
	// Capture returns the current store + stack state. Its Entries may
	// share the store's version arrays (storage.Store.View): with an
	// offloading runtime they are encoded off the loop while the loop
	// keeps applying, which the store's append-only invariant makes safe.
	Capture func() *Checkpoint
	// Barrier flushes any buffered group commit so the WAL is consistent
	// with the captured state, returning the pipeline's LSN (diagnostics).
	Barrier func() uint64
	// WALBytes reports bytes appended to the WAL so far (the
	// bytes-since-last trigger input). Nil disables the bytes trigger.
	WALBytes func() int64
	// Observe, when non-nil, is called on the loop after each successful
	// checkpoint with the capture's start time, file bytes, applied index,
	// and how many WAL segments were truncated. The checkpoint is durable
	// when it runs, so now-start spans capture to durable. core wires it
	// to trace spans and metrics.
	Observe func(start time.Duration, bytes int64, applied uint64, truncated int)
}

// Stats counts what the checkpointer has done, for STATS and metrics.
type Stats struct {
	Checkpoints       int
	LastIndex         uint64
	LastBytes         int64
	LastUnix          time.Duration // site-clock timestamp of the last checkpoint
	SegmentsTruncated int
	Errors            int
}

// Runtime is the slice of the event-loop runtime the checkpointer needs.
// It is satisfied by a thin adapter over env.Runtime (core wires one) so
// this package stays environment-agnostic.
type Runtime struct {
	SetTimer func(d time.Duration, fn func())
	Now      func() time.Duration
	Logf     func(format string, args ...any)
	// Offload, when non-nil, runs work off the event loop and afterwards
	// runs done on the loop; done may be dropped if the runtime shuts down
	// first. With it a checkpoint holds the loop only for the barrier and
	// the capture, and the encode, write, fsync, prune and WAL truncation
	// happen in work. Without it (the simulator) Run does everything
	// inline, deterministically.
	Offload func(work, done func())
}

// Checkpointer periodically persists checkpoints and truncates the WAL.
// It is driven entirely by event-loop timers: Start arms the first timer,
// and each run re-arms it, so all state access stays single-threaded. At
// most one checkpoint is in flight; the persist half may run off the loop
// (Runtime.Offload), and only its result is handed back.
type Checkpointer struct {
	pol   Policy
	src   Source
	rt    Runtime
	stats Stats

	lastWALBytes int64 // WALBytes() reading at the last checkpoint's capture
	busy         bool  // a checkpoint's persist is in flight off the loop
}

// NewCheckpointer wires a checkpointer; returns nil when the policy is
// disabled (callers nil-check before Start, and a nil Checkpointer's
// methods are safe no-ops).
func NewCheckpointer(pol Policy, src Source, rt Runtime) *Checkpointer {
	if !pol.Enabled() || src.Capture == nil {
		return nil
	}
	if pol.Retain < 1 {
		pol.Retain = 1
	}
	if rt.Now == nil {
		rt.Now = func() time.Duration { return 0 }
	}
	if rt.Logf == nil {
		rt.Logf = func(string, ...any) {}
	}
	return &Checkpointer{pol: pol, src: src, rt: rt}
}

// Stats returns a copy of the counters (zero value on a nil receiver).
func (c *Checkpointer) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.stats
}

// Policy returns the active policy (zero value on a nil receiver).
func (c *Checkpointer) Policy() Policy {
	if c == nil {
		return Policy{}
	}
	return c.pol
}

// Start arms the periodic trigger. Safe on a nil receiver.
func (c *Checkpointer) Start() {
	if c == nil {
		return
	}
	c.arm()
}

// tickInterval is how often the bytes trigger is polled when no Interval
// is configured.
const tickInterval = 100 * time.Millisecond

func (c *Checkpointer) arm() {
	d := c.pol.Interval
	if d <= 0 {
		if c.pol.MaxWALBytes <= 0 || c.src.WALBytes == nil {
			return // nothing can ever trigger
		}
		d = tickInterval
	}
	if c.rt.SetTimer == nil {
		return // no runtime (tests drive Run directly)
	}
	c.rt.SetTimer(d, c.tick)
}

// tick runs on the event loop: checkpoint if a trigger fired and none is
// in flight, re-arm.
func (c *Checkpointer) tick() {
	due := c.pol.Interval > 0 // timer-driven policies checkpoint every tick
	if c.pol.MaxWALBytes > 0 && c.src.WALBytes != nil &&
		c.src.WALBytes()-c.lastWALBytes >= c.pol.MaxWALBytes {
		due = true
	}
	if due && !c.busy {
		c.Run()
	}
	c.arm()
}

// persisted is what the off-loop half of a checkpoint hands back.
type persisted struct {
	path      string
	bytes     int64
	truncated int
	writeErr  error
	errs      []error // prune and truncation failures (the checkpoint itself is durable)
}

// Run takes one checkpoint now: barrier and capture on the loop, then
// encode, write, prune and truncate — off the loop when the runtime can
// offload, inline otherwise. Called from the event loop (tick, or tests
// driving it directly). Safe on a nil receiver. Returns the checkpoint
// path when it completed inline, "" on error, no-op, or when the persist
// was offloaded (or another is still in flight).
func (c *Checkpointer) Run() string {
	if c == nil || c.busy {
		return ""
	}
	start := c.rt.Now()
	if c.src.Barrier != nil {
		c.src.Barrier()
	}
	ck := c.src.Capture()
	if ck == nil || ck.Applied == 0 {
		return "" // nothing committed yet; an empty checkpoint has no value
	}
	var walBytes int64
	if c.src.WALBytes != nil {
		walBytes = c.src.WALBytes()
	}
	if ck.Applied <= c.stats.LastIndex && c.stats.Checkpoints > 0 {
		// Nothing new committed since the last checkpoint; skip the I/O
		// but refresh the bytes floor (retransmissions may have grown it).
		c.lastWALBytes = walBytes
		return ""
	}
	head := encodeMeta(ck)
	var res persisted
	work := func() { res = c.persist(ck.Applied, head, ck.Entries) }
	done := func() {
		c.busy = false
		c.finish(start, ck.Applied, walBytes, res)
	}
	if c.rt.Offload == nil {
		work()
		done()
		return res.path
	}
	c.busy = true
	c.rt.Offload(work, done)
	return ""
}

// persist is the loop-free half of a checkpoint: write the file, prune old
// ones, and truncate the WAL segments it covers. It touches only the
// filesystem and its arguments, never the Checkpointer.
func (c *Checkpointer) persist(applied uint64, head []byte, entries []message.SnapshotEntry) persisted {
	var res persisted
	res.path, res.bytes, res.writeErr = writeFile(c.pol.Dir, applied, head, entries)
	if res.writeErr != nil {
		return res
	}
	if _, err := Prune(c.pol.Dir, c.pol.Retain); err != nil {
		res.errs = append(res.errs, fmt.Errorf("prune failed: %w", err))
	}
	n, err := storage.TruncateSegments(c.pol.Dir, applied)
	if err != nil {
		res.errs = append(res.errs, fmt.Errorf("wal truncation failed: %w", err))
	}
	res.truncated = n
	return res
}

// finish records a persisted checkpoint's outcome; it runs on the loop.
func (c *Checkpointer) finish(start time.Duration, applied uint64, walBytes int64, res persisted) {
	if res.writeErr != nil {
		c.stats.Errors++
		c.rt.Logf("checkpoint: write failed: %v", res.writeErr)
		return
	}
	c.stats.Checkpoints++
	c.stats.LastIndex = applied
	c.stats.LastBytes = res.bytes
	c.stats.LastUnix = c.rt.Now()
	c.lastWALBytes = walBytes
	for _, err := range res.errs {
		c.stats.Errors++
		c.rt.Logf("checkpoint: %v", err)
	}
	c.stats.SegmentsTruncated += res.truncated
	if c.src.Observe != nil {
		c.src.Observe(start, res.bytes, applied, res.truncated)
	}
}
