package message

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// emptyToNil returns a copy of v's value with every empty slice and map
// replaced by nil, so values that differ only there compare equal (the
// codec, like gob, decodes both as nil).
func emptyToNil(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return v
		}
		out := reflect.New(v.Type().Elem())
		out.Elem().Set(emptyToNil(v.Elem()))
		return out
	case reflect.Interface:
		if v.IsNil() {
			return v
		}
		out := reflect.New(v.Type()).Elem()
		out.Set(emptyToNil(v.Elem()))
		return out
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(emptyToNil(v.Field(i)))
		}
		return out
	case reflect.Slice:
		if v.Len() == 0 {
			return reflect.Zero(v.Type())
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return v
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(emptyToNil(v.Index(i)))
		}
		return out
	case reflect.Map:
		if v.Len() == 0 {
			return reflect.Zero(v.Type())
		}
		out := reflect.MakeMapWithSize(v.Type(), v.Len())
		for it := v.MapRange(); it.Next(); {
			out.SetMapIndex(it.Key(), emptyToNil(it.Value()))
		}
		return out
	}
	return v
}

func sameMessage(a, b Message) bool {
	return reflect.DeepEqual(emptyToNil(reflect.ValueOf(&a).Elem()).Interface(), emptyToNil(reflect.ValueOf(&b).Elem()).Interface())
}

// TestCodecRoundTrip: every kind decodes back to what was encoded, with
// empty slices and maps decoding as nil.
func TestCodecRoundTrip(t *testing.T) {
	msgs := append(allMessages(),
		&CommitReq{Txn: TxnID{Site: 1, Seq: 1}, Reads: []KeyVer{}, WriteKV: []KV{}},
		&SyncState{Stack: &StackSync{FifoNext: map[SiteID]uint64{}, HighSeq: map[Class]map[SiteID]uint64{ClassFIFO: {}}, Held: []*Bcast{nil}}},
		&Bcast{Class: ClassAtomic, Payload: &GroupMsg{Inner: &ShardForward{Req: &Bcast{}}}},
		&WriteReq{OpSeq: -1 << 40, Key: "", Value: Value{}},
	)
	for _, m := range msgs {
		got, err := Decode(Append(nil, m))
		if err != nil {
			t.Fatalf("%v: %v", m.Kind(), err)
		}
		if !sameMessage(got, m) {
			t.Fatalf("%v round trip:\n got %#v\nwant %#v", m.Kind(), got, m)
		}
	}
}

// TestDecodeDoesNotAlias: a decoded message shares no memory with the
// frame it came from, so a transport may reuse its read buffer.
func TestDecodeDoesNotAlias(t *testing.T) {
	for _, m := range allMessages() {
		buf := Append(nil, m)
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind(), err)
		}
		for i := range buf {
			buf[i] = 0xA5
		}
		if !sameMessage(got, m) {
			t.Fatalf("%v changed when its source buffer was overwritten:\n got %#v\nwant %#v", m.Kind(), got, m)
		}
	}
}

// TestDecodeRejectsMalformed: Decode fails with ErrMalformed, without
// panicking, on truncations of every kind and on hand-made bad inputs.
func TestDecodeRejectsMalformed(t *testing.T) {
	bad := map[string][]byte{
		"empty":           {},
		"nil message":     {0},
		"unknown kind":    {200},
		"trailing bytes":  append(Append(nil, &VoteReq{}), 0),
		"bool byte":       {byte(KindVote), 0, 0, 0, 2},
		"huge count":      {byte(KindSeqOrder), 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"huge key length": {byte(KindTxnNack), 0, 0, 0, 0xff, 0xff, 0xff, 0x7f},
	}
	deep := []byte{}
	for i := 0; i <= maxDepth; i++ {
		deep = append(deep, byte(KindGroupMsg), 0)
	}
	bad["too deep"] = append(deep, byte(KindVoteReq), 0, 0)
	for _, m := range allMessages() {
		b := Append(nil, m)
		bad[m.Kind().String()+" truncated"] = b[:len(b)-1]
	}
	for name, b := range bad {
		if m, err := Decode(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Decode = %v, %v; want ErrMalformed", name, m, err)
		}
	}
}

// TestAppendAllocs pins encoding into a warm buffer at 0 allocs/op, the
// runtime half of Append's reprolint:noalloc marker.
func TestAppendAllocs(t *testing.T) {
	buf := make([]byte, 0, 4096)
	for _, m := range allMessages() {
		if n := testing.AllocsPerRun(100, func() { buf = Append(buf[:0], m) }); n != 0 {
			t.Errorf("Append(%v) = %v allocs/op", m.Kind(), n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = Size(m) }); n != 0 {
			t.Errorf("Size(%v) = %v allocs/op", m.Kind(), n)
		}
	}
}

// gobEnvelope is the frame gob used to carry on the wire.
type gobEnvelope struct {
	From SiteID
	Msg  Message
}

// TestGobStillEncodesEveryKind: RegisterGob keeps every kind
// gob-encodable for the tools that still use gob.
func TestGobStillEncodesEveryKind(t *testing.T) {
	RegisterGob()
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	for _, m := range allMessages() {
		if err := enc.Encode(gobEnvelope{Msg: m}); err != nil {
			t.Fatalf("encode %v: %v", m.Kind(), err)
		}
		var e gobEnvelope
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("decode %v: %v", m.Kind(), err)
		}
		if !sameMessage(e.Msg, m) {
			t.Fatalf("%v gob round trip:\n got %#v\nwant %#v", m.Kind(), e.Msg, m)
		}
	}
}

// FuzzCodec is seeded with one encoding per kind. Decode must never panic
// and never allocate more than a constant factor of its input; whatever
// it accepts must encode to exactly Size bytes and decode back equal.
func FuzzCodec(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(Append(nil, m))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Decode(b)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(b))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("err = %v, want ErrMalformed", err)
			}
			return
		}
		enc := Append(nil, m)
		if Size(m) != len(enc) {
			t.Fatalf("%v: Size %d, encoding %d bytes", m.Kind(), Size(m), len(enc))
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode %v: %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the message:\n got %#v\nwant %#v", back, m)
		}
	})
}

var benchSink Message

// BenchmarkCodec round-trips protocol A's commit request (2 writes,
// inside its broadcast envelope) and protocol R's vote through the codec
// and through a gob stream carrying the envelope the transport used to
// send. The append sub-benchmarks time encoding alone into a warm buffer.
func BenchmarkCodec(b *testing.B) {
	id := TxnID{Site: 1, Seq: 123456}
	msgs := []struct {
		name string
		m    Message
	}{
		{"commitreq", &Bcast{Class: ClassAtomic, Origin: 1, Seq: 98765, Trace: id, Payload: &CommitReq{
			Txn: id, Reads: []KeyVer{{Key: "key000042", Ver: 1234}}, Writes: []KeyVer{{Key: "key000042", Ver: 1234}, {Key: "key031337", Ver: 99}},
			NWrites: 2, WriteKV: []KV{{Key: "key000042", Value: Value("value-0000000042")}, {Key: "key031337", Value: Value("value-0000031337")}},
		}}},
		{"vote", &Bcast{Class: ClassReliable, Origin: 2, Seq: 98765, Trace: id, Payload: &Vote{Txn: id, By: 2, Yes: true}}},
	}
	for _, tc := range msgs {
		b.Run("codec/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := Append(nil, tc.m)
			for i := 0; i < b.N; i++ {
				buf = Append(buf[:0], tc.m)
				m, err := Decode(buf)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m
			}
			b.ReportMetric(float64(len(buf)), "wireB")
		})
		b.Run("append/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := Append(nil, tc.m)
			for i := 0; i < b.N; i++ {
				buf = Append(buf[:0], tc.m)
			}
		})
		b.Run("gob/"+tc.name, func(b *testing.B) {
			RegisterGob()
			var buf bytes.Buffer
			enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
			roundTrip := func() {
				if err := enc.Encode(gobEnvelope{From: 1, Msg: tc.m}); err != nil {
					b.Fatal(err)
				}
				var e gobEnvelope
				if err := dec.Decode(&e); err != nil {
					b.Fatal(err)
				}
				benchSink = e.Msg
			}
			roundTrip() // the stream sends each type's description once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				roundTrip()
			}
		})
	}
}
