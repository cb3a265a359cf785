package lockmgr

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/trace"
)

func txn(site, seq int) message.TxnID {
	return message.TxnID{Site: message.SiteID(site), Seq: uint64(seq)}
}

func TestSharedCompatible(t *testing.T) {
	m := New()
	if r := m.Acquire(txn(0, 1), "x", Shared, false, nil); r != Granted {
		t.Fatalf("first S: %v", r)
	}
	if r := m.Acquire(txn(1, 1), "x", Shared, false, nil); r != Granted {
		t.Fatalf("second S: %v", r)
	}
	if got := len(m.Holders("x")); got != 2 {
		t.Fatalf("holders = %d", got)
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m := New()
	m.Acquire(txn(0, 1), "x", Exclusive, false, nil)
	if r := m.Acquire(txn(1, 1), "x", Exclusive, false, nil); r != Conflict {
		t.Fatalf("X vs X: %v", r)
	}
	if r := m.Acquire(txn(1, 1), "x", Shared, false, nil); r != Conflict {
		t.Fatalf("S vs X: %v", r)
	}
	if r := m.Acquire(txn(0, 1), "x", Exclusive, false, nil); r != Granted {
		t.Fatalf("reentrant X: %v", r)
	}
}

func TestQueueAndGrantOnRelease(t *testing.T) {
	m := New()
	m.Acquire(txn(0, 1), "x", Exclusive, false, nil)
	granted := false
	if r := m.Acquire(txn(1, 1), "x", Shared, true, func() { granted = true }); r != Queued {
		t.Fatalf("queued: %v", r)
	}
	if granted {
		t.Fatal("granted before release")
	}
	m.ReleaseAll(txn(0, 1))
	if !granted {
		t.Fatal("not granted after release")
	}
	if got := m.HolderMode(txn(1, 1), "x"); got != Shared {
		t.Fatalf("mode = %v", got)
	}
}

func TestFIFOFairnessNoStarvation(t *testing.T) {
	m := New()
	m.Acquire(txn(0, 1), "x", Shared, false, nil)
	var order []int
	m.Acquire(txn(1, 1), "x", Exclusive, true, func() { order = append(order, 1) })
	// A later shared request must not overtake the queued X.
	if r := m.Acquire(txn(2, 1), "x", Shared, false, nil); r != Conflict {
		t.Fatalf("S should not overtake queued X: %v", r)
	}
	m.Acquire(txn(3, 1), "x", Shared, true, func() { order = append(order, 3) })
	m.ReleaseAll(txn(0, 1))
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("grant order %v, want [1]", order)
	}
	m.ReleaseAll(txn(1, 1))
	if len(order) != 2 || order[1] != 3 {
		t.Fatalf("grant order %v, want [1 3]", order)
	}
}

func TestConsecutiveSharedGrantedTogether(t *testing.T) {
	m := New()
	m.Acquire(txn(0, 1), "x", Exclusive, false, nil)
	got := 0
	m.Acquire(txn(1, 1), "x", Shared, true, func() { got++ })
	m.Acquire(txn(2, 1), "x", Shared, true, func() { got++ })
	m.Acquire(txn(3, 1), "x", Exclusive, true, func() { got += 100 })
	m.ReleaseAll(txn(0, 1))
	if got != 2 {
		t.Fatalf("expected both S granted, X held back: got=%d", got)
	}
}

func TestUpgrade(t *testing.T) {
	m := New()
	m.Acquire(txn(0, 1), "x", Shared, false, nil)
	if r := m.Acquire(txn(0, 1), "x", Exclusive, false, nil); r != Granted {
		t.Fatalf("sole-holder upgrade: %v", r)
	}
	if got := m.HolderMode(txn(0, 1), "x"); got != Exclusive {
		t.Fatalf("mode = %v", got)
	}
	// With a second shared holder the upgrade must conflict in no-wait mode.
	m2 := New()
	m2.Acquire(txn(0, 1), "x", Shared, false, nil)
	m2.Acquire(txn(1, 1), "x", Shared, false, nil)
	if r := m2.Acquire(txn(0, 1), "x", Exclusive, false, nil); r != Conflict {
		t.Fatalf("contended upgrade: %v", r)
	}
}

func TestQueuedUpgradeGrantsWhenSole(t *testing.T) {
	m := New()
	m.Acquire(txn(0, 1), "x", Shared, false, nil)
	m.Acquire(txn(1, 1), "x", Shared, false, nil)
	upgraded := false
	if r := m.Acquire(txn(0, 1), "x", Exclusive, true, func() { upgraded = true }); r != Queued {
		t.Fatalf("queued upgrade: %v", r)
	}
	m.ReleaseAll(txn(1, 1))
	if !upgraded {
		t.Fatal("upgrade not granted after other holder left")
	}
	if got := m.HolderMode(txn(0, 1), "x"); got != Exclusive {
		t.Fatalf("mode = %v", got)
	}
}

func TestReleaseWhileQueuedRemoves(t *testing.T) {
	m := New()
	m.Acquire(txn(0, 1), "x", Exclusive, false, nil)
	fired := false
	m.Acquire(txn(1, 1), "x", Exclusive, true, func() { fired = true })
	m.ReleaseAll(txn(1, 1)) // abort the waiter
	m.ReleaseAll(txn(0, 1))
	if fired {
		t.Fatal("aborted waiter still granted")
	}
	if m.Waiters() != 0 || m.Locks() != 0 {
		t.Fatalf("table not empty: waiters=%d locks=%d", m.Waiters(), m.Locks())
	}
}

func TestConflictingHolders(t *testing.T) {
	m := New()
	m.Acquire(txn(0, 1), "x", Shared, false, nil)
	m.Acquire(txn(1, 1), "x", Shared, false, nil)
	got := m.ConflictingHolders(txn(2, 1), "x", Exclusive)
	if len(got) != 2 {
		t.Fatalf("conflicting holders = %v", got)
	}
	if got2 := m.ConflictingHolders(txn(2, 1), "x", Shared); len(got2) != 0 {
		t.Fatalf("S vs S should not conflict: %v", got2)
	}
	// The requester itself is excluded.
	if got3 := m.ConflictingHolders(txn(0, 1), "x", Exclusive); len(got3) != 1 {
		t.Fatalf("self not excluded: %v", got3)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := New()
	// T1 holds x, T2 holds y; each queues for the other: classic cycle.
	m.Acquire(txn(0, 1), "x", Exclusive, false, nil)
	m.Acquire(txn(1, 2), "y", Exclusive, false, nil)
	m.Acquire(txn(0, 1), "y", Exclusive, true, nil)
	if c := m.DetectDeadlock(); c != nil {
		t.Fatalf("premature cycle: %v", c)
	}
	m.Acquire(txn(1, 2), "x", Exclusive, true, nil)
	c := m.DetectDeadlock()
	if len(c) != 2 {
		t.Fatalf("cycle = %v, want 2 transactions", c)
	}
	// Breaking the cycle by aborting one participant clears it.
	m.ReleaseAll(c[0])
	if c2 := m.DetectDeadlock(); c2 != nil {
		t.Fatalf("cycle persists after abort: %v", c2)
	}
}

func TestNoWaitNeverDeadlocks(t *testing.T) {
	// Property: under the paper's execution discipline — a transaction
	// performs all its (possibly waiting) shared acquisitions before its
	// first exclusive one, and replicated-write exclusive acquisition is
	// no-wait — random workloads never produce a waits-for cycle. This is
	// the deadlock-prevention claim of the broadcast protocols; the engines
	// enforce exactly this discipline (reads before writes, never-wait
	// writes).
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		m := New()
		wrotePhase := map[message.TxnID]bool{}
		for step := 0; step < 300; step++ {
			id := txn(r.Intn(4), 1+r.Intn(20))
			key := message.Key([]byte{'a' + byte(r.Intn(6))})
			switch r.Intn(4) {
			case 0, 1: // replicated write: no-wait X
				wrotePhase[id] = true
				m.Acquire(id, key, Exclusive, false, nil)
			case 2: // local read: may wait behind X, but only pre-write
				if wrotePhase[id] {
					continue // reads precede writes in the paper's model
				}
				m.Acquire(id, key, Shared, true, nil)
			case 3: // commit/abort
				m.ReleaseAll(id)
				delete(wrotePhase, id)
			}
			if c := m.DetectDeadlock(); c != nil {
				t.Fatalf("trial %d step %d: deadlock %v", trial, step, c)
			}
		}
	}
}

// TestMixedOrderCanDeadlock documents the counterexample: if a transaction
// could wait for a shared lock after holding an exclusive one (i.e. reads
// after writes), cycles become possible — which is exactly why the paper
// assumes transactions read before they write.
func TestMixedOrderCanDeadlock(t *testing.T) {
	m := New()
	m.Acquire(txn(0, 1), "x", Exclusive, false, nil)
	m.Acquire(txn(1, 1), "y", Exclusive, false, nil)
	m.Acquire(txn(0, 1), "y", Shared, true, nil)
	m.Acquire(txn(1, 1), "x", Shared, true, nil)
	if c := m.DetectDeadlock(); len(c) != 2 {
		t.Fatalf("expected the documented counterexample cycle, got %v", c)
	}
}

func TestHeldKeysAndLocks(t *testing.T) {
	m := New()
	m.Acquire(txn(0, 1), "b", Exclusive, false, nil)
	m.Acquire(txn(0, 1), "a", Shared, false, nil)
	keys := m.HeldKeys(txn(0, 1))
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("held keys %v", keys)
	}
	if m.Locks() != 2 {
		t.Fatalf("locks = %d", m.Locks())
	}
	m.ReleaseAll(txn(0, 1))
	if m.Locks() != 0 {
		t.Fatalf("locks after release = %d", m.Locks())
	}
}

func TestModeAndResultStrings(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatal("mode strings")
	}
	if Granted.String() != "granted" || Queued.String() != "queued" || Conflict.String() != "conflict" {
		t.Fatal("result strings")
	}
}

// TestQueuedWaitSpanStamped: an ordinary (non-upgrade) queued acquisition
// must stamp its enqueue time, so its lock-wait span starts when the wait
// began, not at clock zero.
func TestQueuedWaitSpanStamped(t *testing.T) {
	var now time.Duration
	clock := func() time.Duration { return now }
	m := New()
	m.Tracer = trace.New(0, 16, clock)
	m.Now = clock
	a, b := message.TxnID{Site: 0, Seq: 1}, message.TxnID{Site: 1, Seq: 1}

	now = 5 * time.Millisecond
	if r := m.Acquire(a, "k", Exclusive, true, nil); r != Granted {
		t.Fatalf("first acquire = %v", r)
	}
	now = 7 * time.Millisecond
	granted := false
	if r := m.Acquire(b, "k", Exclusive, true, func() { granted = true }); r != Queued {
		t.Fatalf("conflicting acquire = %v, want Queued", r)
	}
	now = 10 * time.Millisecond
	m.ReleaseAll(a)
	if !granted {
		t.Fatal("queued waiter not granted on release")
	}
	var waits []trace.Span
	for _, s := range m.Tracer.Spans() {
		if s.Kind == trace.KindLockWait {
			waits = append(waits, s)
		}
	}
	if len(waits) != 1 {
		t.Fatalf("lock-wait spans = %+v, want 1", waits)
	}
	if w := waits[0]; w.Trace != b || w.Start != 7*time.Millisecond || w.Duration() != 3*time.Millisecond {
		t.Fatalf("lock-wait span = %+v, want txn %v from 7ms lasting 3ms", w, b)
	}
}
