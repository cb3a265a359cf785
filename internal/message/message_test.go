package message

import (
	"testing"

	"repro/internal/vclock"
)

func TestTxnIDOrderingAndString(t *testing.T) {
	a := TxnID{Site: 0, Seq: 1}
	b := TxnID{Site: 1, Seq: 1}
	c := TxnID{Site: 0, Seq: 2}
	if !a.Less(b) || !a.Less(c) || b.Less(a) {
		t.Fatal("TxnID ordering wrong")
	}
	if !b.Less(c) {
		t.Fatal("seq dominates site in age order")
	}
	if a.String() != "t0.1" {
		t.Fatalf("String = %q", a.String())
	}
	if !(TxnID{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
	if SiteID(3).String() != "s3" {
		t.Fatalf("SiteID string %q", SiteID(3).String())
	}
}

func TestViewHas(t *testing.T) {
	v := View{ID: 2, Members: []SiteID{0, 2, 4}}
	if !v.Has(2) || v.Has(1) {
		t.Fatal("View.Has wrong")
	}
	if v.String() == "" {
		t.Fatal("empty view string")
	}
}

// TestKindStringsComplete ensures every message type's kind has a name —
// catching a forgotten map entry when a new message is added.
func TestKindStringsComplete(t *testing.T) {
	msgs := allMessages()
	for _, m := range msgs {
		s := m.Kind().String()
		if s == "" || s[0] == 'K' && len(s) > 5 && s[:5] == "Kind(" {
			t.Fatalf("kind %d has no name", m.Kind())
		}
	}
	if got := Kind(9999).String(); got != "Kind(9999)" {
		t.Fatalf("unknown kind string %q", got)
	}
}

// TestSizeMatchesEncoding pins Size to the encoder for every kind, and
// that allMessages covers every kind, so the simulator's byte accounting
// is the real wire size.
func TestSizeMatchesEncoding(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range allMessages() {
		seen[m.Kind()] = true
		if n, b := Size(m), Append(nil, m); n != len(b) || n <= 1 {
			t.Fatalf("%v: Size %d, encoding %d bytes", m.Kind(), n, len(b))
		}
	}
	for k := range kindNames {
		if !seen[k] {
			t.Errorf("allMessages has no %v", k)
		}
	}
}

func TestSizeGrowsWithPayload(t *testing.T) {
	small := &WriteReq{Txn: TxnID{Site: 1, Seq: 1}, Key: "k", Value: make(Value, 10)}
	big := &WriteReq{Txn: TxnID{Site: 1, Seq: 1}, Key: "k", Value: make(Value, 1000)}
	// 990 more value bytes, and one more byte of length prefix.
	if Size(big)-Size(small) != 991 {
		t.Fatalf("value bytes not counted: %d vs %d", Size(big), Size(small))
	}
	bare := Size(&Bcast{Class: ClassReliable, Payload: small})
	stamped := Size(&Bcast{Class: ClassCausal, VC: vclock.New(8), Payload: small})
	if stamped != bare+8 {
		t.Fatalf("vector clock bytes not counted: %d vs %d", stamped, bare)
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		ClassReliable: "reliable", ClassFIFO: "fifo", ClassCausal: "causal", ClassAtomic: "atomic",
	} {
		if c.String() != want {
			t.Fatalf("%d -> %q", c, c.String())
		}
	}
}

// allMessages returns one instance of every kind, with every slice, map
// and nested message field populated.
func allMessages() []Message {
	id := TxnID{Site: 1, Seq: 2}
	kvs := []KV{{Key: "k", Value: Value("v")}, {Key: "e"}}
	held := &Bcast{Class: ClassAtomic, Origin: 2, Seq: 7, Payload: &CommitReq{Txn: id, WriteKV: kvs}, Trace: id}
	stack := &StackSync{
		CausalVC: vclock.VC{1, 0, 3},
		FifoNext: map[SiteID]uint64{0: 4, 2: 1 << 40},
		HighSeq:  map[Class]map[SiteID]uint64{ClassAtomic: {1: 9}, ClassCausal: {0: 2, 1: 3}},
		Held:     []*Bcast{held},
	}
	pending := map[TxnID][]KV{id: kvs, {Site: 0, Seq: 9}: {{Key: "p", Value: Value("q")}}}
	entries := []SnapshotEntry{
		{Key: "k", Versions: []VersionRec{{Index: 3, Writer: id, Value: Value("v")}, {Index: 5}}},
		{Key: "r", Replace: true, Versions: []VersionRec{{Index: 1 << 33, Writer: id}}},
	}
	shard := &ShardRecovery{
		Prepared: []PreparedShard{{Txn: id, Index: 4, Vote: true, Coord: 2, Groups: []GroupID{0, 3}, Keys: []Key{"a", "b"}, Writes: kvs}},
		Decided:  []DecidedShard{{Txn: TxnID{Site: 2, Seq: 1}, Commit: true}},
		Fenced:   []TxnID{{Site: 0, Seq: 8}},
	}
	entry := []OrderEntry{{Origin: 1, Seq: 1, Index: 1}, {Origin: 2, Seq: 300, Index: 2}}
	view := View{ID: 3, Members: []SiteID{0, 1, 2}}
	return []Message{
		&Bcast{Class: ClassCausal, Origin: 1, Seq: 1, VC: vclock.VC{1, 2}, Payload: &CausalNull{From: 1}, Relayed: true, Trace: id},
		&SeqOrder{Sequencer: 0, Entries: entry},
		&BatchOrder{Leader: 1, Instance: 12, Entries: entry},
		&IsisPropose{Origin: 1, Seq: 2, Proposer: 3, TS: 4},
		&IsisFinal{Origin: 1, Seq: 2, TS: 4, Tie: 3},
		&Heartbeat{From: 2, ViewID: 3},
		&ViewPropose{Proposer: 1, View: view},
		&ViewAck{By: 2, ViewID: 3},
		&ViewInstall{View: view},
		&StateRequest{From: 1, HaveIndex: 77},
		&StateSnapshot{From: 1, Applied: 9, Entries: entries, Stack: stack, Pending: pending},
		&SnapshotChunk{From: 2, Applied: 9, Since: 4, Seq: 3, Last: true, Entries: entries, Stack: stack, Pending: pending, Shard: shard},
		&SyncState{From: 0, Stack: stack, Pending: pending},
		&RetransmitReq{From: 1, FromIndex: 5, Applied: 4},
		&WriteReq{Txn: id, OpSeq: 1, Key: "k", Value: Value("v")},
		&WriteAck{Txn: id, OpSeq: 2, By: 1, OK: true},
		&TxnNack{Txn: id, By: 2, Key: "k"},
		&VoteReq{Txn: id}, &Vote{Txn: id, By: 2, Yes: true}, &Decision{Txn: id, Commit: true, NOps: 3},
		&CommitReq{Txn: id, Reads: []KeyVer{{Key: "k", Ver: 3}}, Writes: []KeyVer{{Key: "k"}}, NWrites: 1, WriteKV: kvs},
		&CausalNull{From: -1}, &WriteBatch{Txn: id, Writes: kvs},
		&UWrite{Txn: id, OpSeq: 1, Key: "k", Value: Value("v")}, &UWriteAck{Txn: id, OpSeq: 1, By: 2, OK: true},
		&Wound{Txn: id, By: 2}, &Prepare{Txn: id}, &PrepareVote{Txn: id, By: 1, Yes: true}, &PDecision{Txn: id, Commit: true},
		&QReadReq{Txn: id, Seq: 1, Key: "k"},
		&QReadReply{Txn: id, Seq: 1, Key: "k", From: 2, Ver: 3, Writer: id, Value: Value("v"), Found: true},
		&QLockReq{Txn: id, Keys: []Key{"k", "l"}},
		&QLockReply{Txn: id, From: 1, Vers: []KeyVer{{Key: "k", Ver: 1}}},
		&QCommit{Txn: id, Writes: kvs, Vers: []KeyVer{{Key: "k", Ver: 2}}},
		&QRelease{Txn: id},
		&GroupMsg{Group: 2, Inner: held},
		&ShardPrepare{Txn: id, Group: 1, Coord: 0, Groups: []GroupID{0, 1}, Reads: []KeyVer{{Key: "k", Ver: 1}}, WriteKV: kvs},
		&ShardVote{Txn: id, Group: 1, By: 2, Yes: true},
		&ShardDecision{Txn: id, Group: 1, Commit: true},
		&ShardForward{Group: 1, Req: &ShardDecision{Txn: id, Group: 1}},
		&ShardOutcome{Txn: id, Group: 1, Commit: true},
		&CoordQuery{Txn: id, Group: 1, From: 2},
		&CoordStatus{Txn: id, Group: 1, By: 2, Decided: true, Outcome: true, Prepared: true, Vote: true},
	}
}
