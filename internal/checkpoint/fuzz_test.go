package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/message"
	"repro/internal/vclock"
)

// withHeader frames body behind a valid header of the given magic, so the
// bytes get past the checksum and reach the body decoder.
func withHeader(magic [8]byte, body []byte) []byte {
	var hdr [headerBytes]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(body))
	return append(hdr[:], body...)
}

// FuzzCheckpointRead feeds arbitrary bytes to Read's decoder four ways:
// as a whole file (header, length and checksum checks), as the entry
// section of a version-2 body behind a valid header and gob meta part (the
// varint decoder), as a whole version-3 body, and as the meta part of a
// version-3 body (the message codec decoding stack frontiers, held
// broadcasts and shard state). It reads from memory rather than a file to
// keep each exec cheap. Read must never panic, must fail only with
// ErrCorrupt, must never allocate more than a constant factor of the input
// (no length or count in the bytes may size an allocation the bytes cannot
// fill), and whatever it accepts must round-trip through Write unchanged.
//
// The gob-encoded parts of the older versions (a version-1 body, the
// version-2 meta part) are never fed forged bytes: gob sizes a map from
// its claimed count, so a few bytes can demand gigabytes. The checksum
// guards them against corruption, not forgery. The fuzzer can solve
// checksum comparisons, so a whole-file input of those versions whose
// checksum would pass is skipped rather than handed to gob.
func FuzzCheckpointRead(f *testing.F) {
	message.RegisterGob()
	var meta bytes.Buffer
	if err := gob.NewEncoder(&meta).Encode(metaV2{Applied: 9, Stack: &message.StackSync{CausalVC: vclock.VC{1, 2}}}); err != nil {
		f.Fatal(err)
	}
	metaPrefix := binary.AppendUvarint(nil, uint64(meta.Len()))
	metaPrefix = append(metaPrefix, meta.Bytes()...)

	seedDir := f.TempDir()
	seed := &Checkpoint{
		Applied: 9,
		Entries: []message.SnapshotEntry{
			{Key: "k", Versions: []message.VersionRec{{Index: 9, Writer: message.TxnID{Site: 1, Seq: 2}, Value: message.Value("v")}}},
			{Key: "r", Replace: true, Versions: []message.VersionRec{{Index: 3}, {Index: 4, Value: message.Value("w")}}},
		},
		Stack: &message.StackSync{CausalVC: vclock.VC{1, 2}},
	}
	var v2Body bytes.Buffer
	if _, _, err := writeBody(&v2Body, meta.Bytes(), seed.Entries); err != nil {
		f.Fatal(err)
	}
	valid := withHeader(magicV2, v2Body.Bytes())
	f.Add(valid)
	f.Add(valid[headerBytes:])                     // a body
	f.Add(valid[headerBytes+len(metaPrefix):])     // an entry section
	f.Add(valid[:len(valid)-2])                    // torn
	f.Add([]byte{})                                // empty
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})    // a huge count
	f.Add(withHeader(magicV2, []byte{0x80, 0x80})) // bad varint

	full := layoutCheckpoint(3)
	path, _, err := Write(seedDir, full)
	if err != nil {
		f.Fatal(err)
	}
	v3, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)                    // a version-3 file
	f.Add(v3[headerBytes:])      // a version-3 body
	f.Add(encodeMeta(full))      // a version-3 meta part
	f.Add(encodeMeta(seed))      // a small one
	f.Add([]byte{1, 1, 0, 0, 0}) // a stack with nothing in it

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(file []byte) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ck, err := read(bytes.NewReader(file), int64(len(file)))
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(file))+4<<20 {
				t.Fatalf("reading a %d-byte file allocated %d bytes", len(file), grew)
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				return
			}
			// Accepted: it must survive an encode and decode in the
			// current version (in memory: Write's fsyncs would dominate
			// every exec).
			var body bytes.Buffer
			if _, _, err := writeBody(&body, encodeMeta(ck), ck.Entries); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			back, err := decodeBody(magicV3, body.Bytes())
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			ck.Format = 3
			if !reflect.DeepEqual(back, ck) {
				t.Fatalf("round trip changed the checkpoint:\n got %+v\nwant %+v", back, ck)
			}
		}
		if !gobChecksumPasses(data) {
			check(data)
		}
		check(withHeader(magicV2, append(append([]byte(nil), metaPrefix...), data...)))
		check(withHeader(magicV3, data))
		v3Meta := binary.AppendUvarint(nil, uint64(len(data)))
		check(withHeader(magicV3, append(append(v3Meta, data...), 0)))
	})
}

// TestFuzzSeedsDecode pins that the fuzz seeds exercise the decoders: the
// valid seed reads back, and a body behind a fresh header does too.
func TestFuzzSeedsDecode(t *testing.T) {
	dir := t.TempDir()
	want := &Checkpoint{Applied: 4, Entries: []message.SnapshotEntry{{Key: "a", Versions: []message.VersionRec{{Index: 4}}}}, Format: 3}
	path, _, err := Write(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withHeader(magicV3, b[headerBytes:]), b) {
		t.Fatal("withHeader does not reproduce Write's header")
	}
	got, err := Read(path)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v, %v", got, err)
	}
}

// gobChecksumPasses reports whether file's header would admit its body to
// a gob decoder: a version-1 or version-2 magic, a length within the file,
// and a matching CRC.
func gobChecksumPasses(file []byte) bool {
	if len(file) < headerBytes {
		return false
	}
	var magic [8]byte
	copy(magic[:], file[:8])
	size := int64(binary.LittleEndian.Uint32(file[8:12]))
	if (magic != magicV1 && magic != magicV2) || size > int64(len(file)-headerBytes) {
		return false
	}
	return crc32.ChecksumIEEE(file[headerBytes:headerBytes+size]) == binary.LittleEndian.Uint32(file[12:16])
}
