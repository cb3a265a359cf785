package checkpoint

import (
	"bytes"
	"encoding/binary"
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

// FuzzCheckpointRead feeds arbitrary bytes to Read's decoder two ways: as
// a whole file (header, length and checksum checks), and as the entry
// section of a version-2 body behind a valid header and meta blob (the
// varint decoder). It reads from memory rather than a file to keep each
// exec cheap. Read must never panic, must fail only with ErrCorrupt, must
// never allocate more than a constant factor of the input (no length or
// count in the bytes may size an allocation the bytes cannot fill), and
// whatever it accepts must round-trip through Write unchanged.
//
// The gob-encoded parts (a version-1 body, the version-2 meta blob) are
// never fed forged bytes: gob sizes a map from its claimed count, so a few
// bytes can demand gigabytes. The checksum guards them against corruption,
// not forgery, and only this package writes them. The fuzzer can solve
// checksum comparisons, so a whole-file input whose checksum would pass is
// skipped rather than handed to gob.
func FuzzCheckpointRead(f *testing.F) {
	meta, err := encodeMeta(&Checkpoint{Applied: 9, Stack: &message.StackSync{CausalVC: vclock.VC{1, 2}}})
	if err != nil {
		f.Fatal(err)
	}
	metaPrefix := binary.AppendUvarint(nil, uint64(len(meta)))
	metaPrefix = append(metaPrefix, meta...)

	seedDir := f.TempDir()
	path, _, err := Write(seedDir, &Checkpoint{
		Applied: 9,
		Entries: []message.SnapshotEntry{
			{Key: "k", Versions: []message.VersionRec{{Index: 9, Writer: message.TxnID{Site: 1, Seq: 2}, Value: message.Value("v")}}},
			{Key: "r", Replace: true, Versions: []message.VersionRec{{Index: 3}, {Index: 4, Value: message.Value("w")}}},
		},
		Stack: &message.StackSync{CausalVC: vclock.VC{1, 2}},
	})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[headerBytes:])                     // a body
	f.Add(valid[headerBytes+len(metaPrefix):])     // an entry section
	f.Add(valid[:len(valid)-2])                    // torn
	f.Add([]byte{})                                // empty
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})    // a huge count
	f.Add(withHeader(magicV2, []byte{0x80, 0x80})) // bad varint

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
			// Accepted: it must survive a version-2 encode and decode
			// (in memory: Write's fsyncs would dominate every exec).
			head, err := encodeMeta(ck)
			if err != nil {
				t.Fatalf("re-encode meta: %v", err)
			}
			var body bytes.Buffer
			if _, _, err := writeBody(&body, head, ck.Entries); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			back, err := decodeBody(magicV2, body.Bytes())
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			ck.Format = 2
			if !reflect.DeepEqual(back, ck) {
				t.Fatalf("round trip changed the checkpoint:\n got %+v\nwant %+v", back, ck)
			}
		}
		if !checksumPasses(data) {
			check(data)
		}
		check(withHeader(magicV2, append(append([]byte(nil), metaPrefix...), data...)))
	})
}

// TestFuzzSeedsDecode pins that the fuzz seeds exercise the decoders: the
// valid seed reads back, and a body behind a fresh header does too.
func TestFuzzSeedsDecode(t *testing.T) {
	dir := t.TempDir()
	want := &Checkpoint{Applied: 4, Entries: []message.SnapshotEntry{{Key: "a", Versions: []message.VersionRec{{Index: 4}}}}, Format: 2}
	path, _, err := Write(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withHeader(magicV2, b[headerBytes:]), b) {
		t.Fatal("withHeader does not reproduce Write's header")
	}
	got, err := Read(path)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v, %v", got, err)
	}
}

// checksumPasses reports whether file's header would admit its body to a
// decoder: a known magic, a length within the file, and a matching CRC.
func checksumPasses(file []byte) bool {
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
