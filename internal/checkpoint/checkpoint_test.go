package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/storage"
	"repro/internal/vclock"
)

func txn(site, seq int) message.TxnID {
	return message.TxnID{Site: message.SiteID(site), Seq: uint64(seq)}
}

func kv(k, v string) message.KV {
	return message.KV{Key: message.Key(k), Value: message.Value(v)}
}

// fillWAL appends n single-write records (indexes 1..n) to a fresh segmented
// log in dir, rotating aggressively so truncation has sealed segments to eat.
func fillWAL(t *testing.T, dir string, n int) {
	t.Helper()
	l, err := storage.OpenSegments(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		r := storage.Record{Index: uint64(i), Txn: txn(0, i),
			Writes: []message.KV{kv("k", fmt.Sprintf("v%d-padpadpadpadpadpadpad", i))}}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// storeAt replays records 1..n into a fresh store and returns its checkpoint.
func storeAt(t *testing.T, n int) *Checkpoint {
	t.Helper()
	st := storage.New(nil)
	for i := 1; i <= n; i++ {
		if err := st.Apply(txn(0, i), []message.KV{kv("k", fmt.Sprintf("v%d-padpadpadpadpadpadpad", i))}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return &Checkpoint{Applied: st.Applied(), Entries: st.Snapshot()}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := &Checkpoint{
		Applied: 7,
		Entries: []message.SnapshotEntry{{
			Key:      "x",
			Versions: []message.VersionRec{{Index: 7, Writer: txn(1, 3), Value: message.Value("v")}},
		}},
		Stack: &message.StackSync{CausalVC: vclock.VC{0, 4, 2}},
	}
	path, bytes, err := Write(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 16 {
		t.Fatalf("reported size %d", bytes)
	}
	if idx, err := IndexOf(path); err != nil || idx != 7 {
		t.Fatalf("IndexOf(%s) = %d, %v", path, idx, err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Applied != 7 || len(got.Entries) != 1 || got.Entries[0].Key != "x" {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Stack == nil || len(got.Stack.CausalVC) != 3 || got.Stack.CausalVC[1] != 4 {
		t.Fatalf("stack lost in round trip: %+v", got.Stack)
	}
	// No temp file left behind on the happy path.
	if tmps, _ := TempFiles(dir); len(tmps) != 0 {
		t.Fatalf("leftover temp files: %v", tmps)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path, _, err := Write(dir, storeAt(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"flipped body byte": func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 0xff; return c },
		"bad magic":         func(b []byte) []byte { c := append([]byte(nil), b...); c[0] = 'X'; return c },
		"short body":        func(b []byte) []byte { return b[:len(b)-4] },
		"header only":       func(b []byte) []byte { return b[:10] },
	} {
		if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLatestFallsBackPastCorrupt: a torn or corrupted newest checkpoint must
// not take down recovery — the previous valid one is used.
func TestLatestFallsBackPastCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Write(dir, storeAt(t, 2)); err != nil {
		t.Fatal(err)
	}
	newest, _, err := Write(dir, storeAt(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, path, err := Latest(dir)
	if err != nil || ck == nil {
		t.Fatalf("Latest: %v %v", ck, err)
	}
	if ck.Applied != 2 || !strings.Contains(path, "0000000000000002") {
		t.Fatalf("Latest fell back to %d (%s), want the valid applied=2 file", ck.Applied, path)
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{1, 2, 3, 4} {
		if _, _, err := Write(dir, storeAt(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	orphan := filepath.Join(dir, "ckpt-00000000000000aa.ckpt.tmp")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := Prune(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 { // two old checkpoints + the orphan
		t.Fatalf("removed = %d, want 3", removed)
	}
	files, _ := Files(dir)
	if len(files) != 2 {
		t.Fatalf("surviving files: %v", files)
	}
	if ck, _, err := Latest(dir); err != nil || ck.Applied != 4 {
		t.Fatalf("newest after prune: %+v %v", ck, err)
	}
}

func TestRecoverWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 5)
	st, w, info, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if info.CheckpointIndex != 0 || info.Replayed != 5 || info.Skipped != 0 {
		t.Fatalf("info = %+v", info)
	}
	if st.Applied() != 5 {
		t.Fatalf("applied = %d", st.Applied())
	}
	if st.WAL() != w {
		t.Fatal("recovered store not attached to the reopened WAL")
	}
}

// TestRecoverCheckpointPlusSuffix: the normal restart path — checkpoint at
// 3, WAL truncated below it, only the suffix replays.
func TestRecoverCheckpointPlusSuffix(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 5)
	if _, _, err := Write(dir, storeAt(t, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.TruncateSegments(dir, 3); err != nil {
		t.Fatal(err)
	}
	st, w, info, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if info.CheckpointIndex != 3 {
		t.Fatalf("info = %+v", info)
	}
	if info.Replayed != 2 {
		t.Fatalf("replayed %d records, want just the suffix (2): %+v", info.Replayed, info)
	}
	if st.Applied() != 5 {
		t.Fatalf("applied = %d", st.Applied())
	}
	if v, ok := st.Get("k"); !ok || !strings.HasPrefix(string(v.Value), "v5") {
		t.Fatalf("k = %+v ok=%v", v, ok)
	}
}

// TestRecoverIdempotentBeforeTruncation: crash window between checkpoint
// rename and WAL truncation — the whole log is still on disk, and records at
// or below the floor must be skipped, not re-applied (re-applying would fail
// the store's monotonicity check against the restored chains).
func TestRecoverIdempotentBeforeTruncation(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 5)
	if _, _, err := Write(dir, storeAt(t, 3)); err != nil {
		t.Fatal(err)
	}
	// No truncation: simulate the crash immediately after rename.
	st, w, info, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped != 3 || info.Replayed != 2 {
		t.Fatalf("info = %+v, want 3 skipped + 2 replayed", info)
	}
	if st.Applied() != 5 {
		t.Fatalf("applied = %d", st.Applied())
	}
	w.Close()
	// Recovery is repeatable: truncate now and recover again to the same state.
	if _, err := storage.TruncateSegments(dir, 3); err != nil {
		t.Fatal(err)
	}
	st2, w2, _, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st2.Applied() != st.Applied() || st2.VersionCount() != st.VersionCount() {
		t.Fatalf("second recovery diverged: applied %d vs %d", st2.Applied(), st.Applied())
	}
}

// TestRecoverIgnoresPartialTempFile: crash mid-checkpoint-write leaves only
// a *.tmp — recovery must use the previous checkpoint and the full suffix.
func TestRecoverIgnoresPartialTempFile(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 4)
	if _, _, err := Write(dir, storeAt(t, 2)); err != nil {
		t.Fatal(err)
	}
	partial := filepath.Join(dir, "ckpt-0000000000000004.ckpt.tmp")
	if err := os.WriteFile(partial, []byte("torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, w, info, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if info.CheckpointIndex != 2 {
		t.Fatalf("recovery used %+v, want the completed applied=2 checkpoint", info)
	}
	if st.Applied() != 4 {
		t.Fatalf("applied = %d", st.Applied())
	}
}

// runSource builds a Source over a live store+WAL pair in dir.
func runSource(t *testing.T, dir string) (*storage.Store, *storage.WAL, Source) {
	t.Helper()
	l, err := storage.OpenSegments(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	st := storage.New(l)
	src := Source{
		Capture:  func() *Checkpoint { return &Checkpoint{Applied: st.Applied(), Entries: st.Snapshot()} },
		Barrier:  func() uint64 { return st.Applied() },
		WALBytes: l.AppendedBytes,
	}
	return st, l, src
}

func TestCheckpointerRun(t *testing.T) {
	dir := t.TempDir()
	st, _, src := runSource(t, dir)
	var observed int
	src.Observe = func(time.Duration, int64, uint64, int) { observed++ }
	c := NewCheckpointer(Policy{Dir: dir, Retain: 1}, src, Runtime{})
	if c == nil {
		t.Fatal("enabled policy returned a nil checkpointer")
	}

	// Nothing committed: no checkpoint.
	if path := c.Run(); path != "" || c.Stats().Checkpoints != 0 {
		t.Fatalf("empty run wrote %q, stats %+v", path, c.Stats())
	}

	for i := 1; i <= 6; i++ {
		if err := st.Apply(txn(0, i), []message.KV{kv("k", fmt.Sprintf("v%d-padpadpadpadpadpadpad", i))}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := c.Run()
	if path == "" {
		t.Fatal("run with committed state wrote nothing")
	}
	s := c.Stats()
	if s.Checkpoints != 1 || s.LastIndex != 6 || s.LastBytes <= 0 {
		t.Fatalf("stats after first run: %+v", s)
	}
	if s.SegmentsTruncated == 0 {
		t.Fatalf("no sealed segments truncated: %+v", s)
	}
	if observed != 1 {
		t.Fatalf("Observe called %d times", observed)
	}

	// No progress since: skip (no new file, no counter bump).
	if path := c.Run(); path != "" || c.Stats().Checkpoints != 1 {
		t.Fatalf("no-progress run wrote %q, stats %+v", path, c.Stats())
	}

	// More commits: a second checkpoint, and Retain=1 prunes the first.
	if err := st.Apply(txn(0, 7), []message.KV{kv("k", "v7")}, 7); err != nil {
		t.Fatal(err)
	}
	if path := c.Run(); path == "" {
		t.Fatal("second run wrote nothing")
	}
	files, _ := Files(dir)
	if len(files) != 1 {
		t.Fatalf("retention not applied: %v", files)
	}
	if idx, _ := IndexOf(files[0]); idx != 7 {
		t.Fatalf("retained checkpoint at %d, want 7", idx)
	}

	// The truncated, checkpointed directory still recovers to full state.
	if err := st.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	st2, w2, info, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st2.Applied() != 7 || info.CheckpointIndex != 7 {
		t.Fatalf("post-truncation recovery: applied %d, info %+v", st2.Applied(), info)
	}
}

// TestCheckpointerBytesTrigger: with no interval, tick() checkpoints only
// once the WAL has grown past MaxWALBytes since the last checkpoint.
func TestCheckpointerBytesTrigger(t *testing.T) {
	dir := t.TempDir()
	st, l, src := runSource(t, dir)
	var timers int
	rt := Runtime{SetTimer: func(d time.Duration, fn func()) { timers++ }}
	c := NewCheckpointer(Policy{Dir: dir, MaxWALBytes: 200, Retain: 2}, src, rt)
	c.Start()
	if timers != 1 {
		t.Fatalf("Start armed %d timers, want 1", timers)
	}

	if err := st.Apply(txn(0, 1), []message.KV{kv("k", "small")}, 1); err != nil {
		t.Fatal(err)
	}
	c.tick() // far below the bytes threshold: no checkpoint
	if c.Stats().Checkpoints != 0 {
		t.Fatalf("tick below threshold checkpointed: %+v", c.Stats())
	}

	big := strings.Repeat("x", 120)
	for i := 2; i <= 4; i++ {
		if err := st.Apply(txn(0, i), []message.KV{kv("k", big)}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.AppendedBytes() < 200 {
		t.Fatalf("test setup: WAL only grew to %d bytes", l.AppendedBytes())
	}
	c.tick()
	if c.Stats().Checkpoints != 1 || c.Stats().LastIndex != 4 {
		t.Fatalf("tick past threshold: %+v", c.Stats())
	}
	// The floor resets: an immediate re-tick must not checkpoint again.
	c.tick()
	if c.Stats().Checkpoints != 1 {
		t.Fatalf("re-tick without growth checkpointed again: %+v", c.Stats())
	}
}

// TestNilCheckpointerSafe: disabled policies produce a nil checkpointer
// whose methods are all no-ops — callers don't branch.
func TestNilCheckpointerSafe(t *testing.T) {
	c := NewCheckpointer(Policy{}, Source{Capture: func() *Checkpoint { return nil }}, Runtime{})
	if c != nil {
		t.Fatal("disabled policy built a checkpointer")
	}
	c.Start()
	if c.Run() != "" {
		t.Fatal("nil Run returned a path")
	}
	if s := c.Stats(); s.Checkpoints != 0 {
		t.Fatalf("nil Stats = %+v", s)
	}
	if p := c.Policy(); p.Enabled() {
		t.Fatalf("nil Policy = %+v", p)
	}
}

// writeV1 writes ck the way format version 1 did: one gob-encoded
// checkpoint body behind the 16-byte header with the version-1 magic.
func writeV1(t *testing.T, dir string, ck *Checkpoint) string {
	t.Helper()
	message.RegisterGob()
	// The field set version 1 encoded (Format did not exist).
	type v1Checkpoint struct {
		Applied uint64
		Entries []message.SnapshotEntry
		Stack   *message.StackSync
		Shard   *message.ShardRecovery
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(v1Checkpoint{Applied: ck.Applied, Entries: ck.Entries, Stack: ck.Stack, Shard: ck.Shard}); err != nil {
		t.Fatal(err)
	}
	var hdr [headerBytes]byte
	copy(hdr[:8], magicV1[:])
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(body.Len()))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(body.Bytes()))
	path := filePath(dir, ck.Applied)
	if err := os.WriteFile(path, append(hdr[:], body.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestV1CheckpointStillRecovers: a directory written before format version
// 2 (gob body) must still load and recover after an upgrade, and a newer
// checkpoint beside it takes over.
func TestV1CheckpointStillRecovers(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 5)
	ck := storeAt(t, 3)
	ck.Stack = &message.StackSync{CausalVC: vclock.VC{1, 2, 3}}
	path := writeV1(t, dir, ck)
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Format != 1 || got.Applied != 3 || !reflect.DeepEqual(got.Entries, ck.Entries) || got.Stack.CausalVC[2] != 3 {
		t.Fatalf("v1 read = %+v", got)
	}
	if _, err := storage.TruncateSegments(dir, 3); err != nil {
		t.Fatal(err)
	}
	st, w, info, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointIndex != 3 || info.Replayed != 2 || st.Applied() != 5 || info.Stack == nil {
		t.Fatalf("recovery from a v1 checkpoint: applied %d, info %+v", st.Applied(), info)
	}
	w.Close()

	// The next checkpoint is written in the current version and wins.
	if _, _, err := Write(dir, &Checkpoint{Applied: st.Applied(), Entries: st.View()}); err != nil {
		t.Fatal(err)
	}
	latest, _, err := Latest(dir)
	if err != nil || latest == nil || latest.Format != 3 || latest.Applied != 5 {
		t.Fatalf("latest after upgrade = %+v, %v", latest, err)
	}
}

// writeV2 writes ck the way format version 2 did: the entry layout of
// version 3 behind a gob-encoded meta part and the version-2 magic.
func writeV2(t *testing.T, dir string, ck *Checkpoint) (string, int64) {
	t.Helper()
	message.RegisterGob()
	var head bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(metaV2{Applied: ck.Applied, Stack: ck.Stack, Shard: ck.Shard}); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, _, err := writeBody(&body, head.Bytes(), ck.Entries); err != nil {
		t.Fatal(err)
	}
	path := filePath(dir, ck.Applied)
	file := withHeader(magicV2, body.Bytes())
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, int64(len(file))
}

// layoutCheckpoint has every field a body carries: the Replace flag, large
// indexes, empty keys and values, several versions per key, stack
// frontiers with a held broadcast, and shard state.
func layoutCheckpoint(format int) *Checkpoint {
	return &Checkpoint{
		Applied: 1 << 40,
		Entries: []message.SnapshotEntry{
			{Key: "z", Replace: true, Versions: []message.VersionRec{{Index: 1 << 40, Writer: txn(7, 1<<33), Value: message.Value("zz")}}},
			{Key: "", Versions: []message.VersionRec{{Index: 2, Writer: txn(0, 0)}}},
			{Key: "a", Versions: []message.VersionRec{
				{Index: 3, Writer: txn(1, 1), Value: message.Value(strings.Repeat("v", 300))},
				{Index: 9, Writer: txn(2, 5), Value: message.Value("x")},
			}},
		},
		Stack: &message.StackSync{
			CausalVC: vclock.VC{0, 4},
			FifoNext: map[message.SiteID]uint64{1: 3},
			HighSeq:  map[message.Class]map[message.SiteID]uint64{message.ClassAtomic: {0: 7}},
			Held:     []*message.Bcast{{Class: message.ClassAtomic, Origin: 1, Seq: 8, Payload: &message.CommitReq{Txn: txn(1, 8), WriteKV: []message.KV{kv("a", "y")}}}},
		},
		Shard: &message.ShardRecovery{
			Prepared: []message.PreparedShard{{Txn: txn(2, 6), Index: 11, Vote: true, Coord: 2, Groups: []message.GroupID{0, 1}, Keys: []message.Key{"a"}, Writes: []message.KV{kv("a", "w")}}},
			Fenced:   []message.TxnID{txn(0, 4)},
		},
		Format: format,
	}
}

// checkLayout checks a checkpoint file: the magic, a header whose length
// and checksum cover exactly the rest of the file, and a body that reads
// back as want.
func checkLayout(t *testing.T, path string, size int64, magic [8]byte, want *Checkpoint) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) != size || !bytes.Equal(b[:8], magic[:]) {
		t.Fatalf("file %d bytes (reported %d), magic %q", len(b), size, b[:8])
	}
	if n := binary.LittleEndian.Uint32(b[8:12]); int(n) != len(b)-headerBytes {
		t.Fatalf("header length %d, body is %d bytes", n, len(b)-headerBytes)
	}
	if sum := binary.LittleEndian.Uint32(b[12:16]); sum != crc32.ChecksumIEEE(b[headerBytes:]) {
		t.Fatal("header checksum does not cover the body")
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestWriteV3Layout: Write produces the version-3 magic and a body that
// round-trips every field.
func TestWriteV3Layout(t *testing.T) {
	want := layoutCheckpoint(3)
	path, size, err := Write(t.TempDir(), want)
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, path, size, magicV3, want)
}

// TestWriteV2Layout: a file in the version-2 layout (gob meta part) that
// the previous release wrote still reads back every field.
func TestWriteV2Layout(t *testing.T) {
	want := layoutCheckpoint(2)
	path, size := writeV2(t, t.TempDir(), want)
	checkLayout(t, path, size, magicV2, want)
}

// TestReadRejectsOversizedClaim: a header claiming more body than the file
// holds is corrupt, and is rejected before the claimed size is allocated.
func TestReadRejectsOversizedClaim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt-0000000000000001.ckpt")
	var hdr [headerBytes]byte
	copy(hdr[:8], magicV3[:])
	binary.LittleEndian.PutUint32(hdr[8:12], 1<<30)
	if err := os.WriteFile(path, append(hdr[:], 1, 2, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(path)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a 3-byte body allocated %d bytes", grew)
	}
}

// TestCheckpointerOffload: with an offloading runtime, Run holds the loop
// only for barrier and capture. The persist runs in work; stats, the bytes
// floor and Observe change only when done runs; and no second checkpoint
// starts while one is in flight.
func TestCheckpointerOffload(t *testing.T) {
	dir := t.TempDir()
	st, l, src := runSource(t, dir)
	captures, observed := 0, 0
	capture := src.Capture
	src.Capture = func() *Checkpoint { captures++; return capture() }
	src.Observe = func(time.Duration, int64, uint64, int) { observed++ }
	var work, done func()
	rt := Runtime{
		SetTimer: func(time.Duration, func()) {},
		Offload:  func(w, d func()) { work, done = w, d },
	}
	c := NewCheckpointer(Policy{Dir: dir, MaxWALBytes: 100, Retain: 1}, src, rt)
	for i := 1; i <= 6; i++ {
		if err := st.Apply(txn(0, i), []message.KV{kv("k", fmt.Sprintf("v%d-padpadpadpadpadpadpad", i))}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	captured := l.AppendedBytes()
	c.tick()
	if work == nil || !c.busy || captures != 1 {
		t.Fatalf("tick past the threshold did not offload (busy %v, captures %d)", c.busy, captures)
	}
	if files, _ := Files(dir); len(files) != 0 || c.Stats().Checkpoints != 0 {
		t.Fatalf("persist ran on the loop: files %v, stats %+v", files, c.Stats())
	}

	// The loop keeps committing while the persist is in flight; ticks skip.
	big := strings.Repeat("x", 200)
	if err := st.Apply(txn(0, 7), []message.KV{kv("k", big)}, 7); err != nil {
		t.Fatal(err)
	}
	c.tick()
	if captures != 1 {
		t.Fatalf("a second checkpoint started while one was in flight (%d captures)", captures)
	}

	work()
	if files, _ := Files(dir); len(files) != 1 {
		t.Fatalf("work did not write the checkpoint: %v", files)
	}
	if c.Stats().Checkpoints != 0 || observed != 0 {
		t.Fatal("stats or Observe changed before done ran on the loop")
	}
	done()
	s := c.Stats()
	if c.busy || s.Checkpoints != 1 || s.LastIndex != 6 || s.SegmentsTruncated == 0 || observed != 1 {
		t.Fatalf("after done: busy %v, stats %+v, observed %d", c.busy, s, observed)
	}
	if c.lastWALBytes != captured {
		t.Fatalf("bytes floor %d, want the capture-time reading %d", c.lastWALBytes, captured)
	}
	// The commit that landed during the persist is past the floor: the
	// next tick checkpoints it.
	work = nil
	c.tick()
	if work == nil || captures != 2 {
		t.Fatal("the next tick did not checkpoint the commit made during the persist")
	}
}
