// Package lockmgr implements each site's strict two-phase-locking table:
// shared/exclusive locks with FIFO wait queues, lock upgrades, a waits-for
// graph with cycle detection, and a no-wait acquisition mode.
//
// The broadcast-based protocols use no-wait exclusive acquisition — a
// delivered replicated write that conflicts is refused immediately (the
// negative acknowledgement path), so writers never wait and the waits-for
// relation can never form a cycle. The point-to-point baseline uses
// blocking acquisition with wound-wait. The deadlock detector exists both
// for the baseline and as a test oracle proving the broadcast protocols
// deadlock-free.
package lockmgr

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/message"
	"repro/internal/trace"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota + 1
	Exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Result reports the outcome of an acquisition attempt.
type Result int

// Acquisition outcomes.
const (
	// Granted means the lock is held on return.
	Granted Result = iota + 1
	// Queued means the request waits; the Grant callback fires later.
	Queued
	// Conflict means the request was refused (no-wait mode or upgrade
	// conflict).
	Conflict
)

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r {
	case Granted:
		return "granted"
	case Queued:
		return "queued"
	case Conflict:
		return "conflict"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

type waiter struct {
	txn   message.TxnID
	mode  Mode
	grant func()
	at    time.Duration // tracer clock at enqueue, for lock-wait spans
}

type entry struct {
	holders map[message.TxnID]Mode
	queue   []waiter
}

// Manager is one site's lock table.
type Manager struct {
	entries map[message.Key]*entry
	held    map[message.TxnID]map[message.Key]Mode
	// waiting counts queued requests per (txn, key): a transaction may
	// legally queue more than one request on a key (e.g. repeated upgrade
	// attempts), and release must purge them all.
	waiting map[message.TxnID]map[message.Key]int

	// Tracer, when non-nil, records queued-then-granted acquisitions as
	// lock-wait spans. The engine that owns the table wires both fields;
	// Now must come from the runtime's clock (never the wall clock) so the
	// table stays deterministic under the simulator.
	Tracer *trace.Tracer
	Now    func() time.Duration
}

// clock reads the injected clock, or 0 when tracing is not wired.
func (m *Manager) clock() time.Duration {
	if m.Now == nil {
		return 0
	}
	return m.Now()
}

// New creates an empty lock table.
func New() *Manager {
	return &Manager{
		entries: make(map[message.Key]*entry),
		held:    make(map[message.TxnID]map[message.Key]Mode),
		waiting: make(map[message.TxnID]map[message.Key]int),
	}
}

func (m *Manager) noteWait(txn message.TxnID, key message.Key) {
	wm := m.waiting[txn]
	if wm == nil {
		wm = make(map[message.Key]int)
		m.waiting[txn] = wm
	}
	wm[key]++
}

func (m *Manager) dropWait(txn message.TxnID, key message.Key) {
	wm := m.waiting[txn]
	if wm == nil {
		return
	}
	if wm[key]--; wm[key] <= 0 {
		delete(wm, key)
	}
	if len(wm) == 0 {
		delete(m.waiting, txn)
	}
}

func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// Acquire requests a lock. If wait is false a conflicting request returns
// Conflict immediately; otherwise it is queued FIFO and grant is invoked
// when the lock is eventually granted (grant may be nil for non-waiting
// callers). Re-acquiring a held lock in the same or weaker mode returns
// Granted; holding Shared and requesting Exclusive upgrades when the
// transaction is the sole holder and no exclusive waiter precedes it.
func (m *Manager) Acquire(txn message.TxnID, key message.Key, mode Mode, wait bool, grant func()) Result {
	e := m.entries[key]
	if e == nil {
		e = &entry{holders: make(map[message.TxnID]Mode)}
		m.entries[key] = e
	}
	if cur, ok := e.holders[txn]; ok {
		if cur >= mode {
			return Granted // already held strongly enough
		}
		// Upgrade S -> X: allowed only as sole holder.
		if len(e.holders) == 1 {
			e.holders[txn] = Exclusive
			m.note(txn, key, Exclusive)
			return Granted
		}
		if !wait {
			return Conflict
		}
		e.queue = append(e.queue, waiter{txn: txn, mode: mode, grant: grant, at: m.clock()})
		m.noteWait(txn, key)
		return Queued
	}
	if m.grantable(e, mode) {
		e.holders[txn] = mode
		m.note(txn, key, mode)
		return Granted
	}
	if !wait {
		return Conflict
	}
	e.queue = append(e.queue, waiter{txn: txn, mode: mode, grant: grant, at: m.clock()})
	m.noteWait(txn, key)
	return Queued
}

// grantable reports whether a new request in mode is compatible with every
// current holder and does not overtake queued waiters.
func (m *Manager) grantable(e *entry, mode Mode) bool {
	if len(e.queue) > 0 {
		return false // FIFO fairness: do not starve queued waiters
	}
	for _, h := range e.holders {
		if !compatible(h, mode) {
			return false
		}
	}
	return true
}

func (m *Manager) note(txn message.TxnID, key message.Key, mode Mode) {
	hm := m.held[txn]
	if hm == nil {
		hm = make(map[message.Key]Mode)
		m.held[txn] = hm
	}
	hm[key] = mode
}

// ReleaseAll releases every lock held by txn and removes it from every wait
// queue, then grants newly compatible waiters. Grant callbacks fire after
// the table is consistent.
//
// Order matters: the transaction's queued requests must be purged BEFORE
// its holds are released — otherwise promoting a key it both held and
// queued an upgrade on would re-grant the dying transaction.
func (m *Manager) ReleaseAll(txn message.TxnID) {
	touched := make(map[message.Key]bool, len(m.held[txn])+len(m.waiting[txn]))
	for key := range m.waiting[txn] {
		e := m.entries[key]
		if e == nil {
			continue
		}
		out := e.queue[:0]
		for _, w := range e.queue {
			if w.txn == txn {
				continue
			}
			out = append(out, w)
		}
		e.queue = out
		touched[key] = true
	}
	delete(m.waiting, txn)
	for key := range m.held[txn] {
		if e := m.entries[key]; e != nil {
			delete(e.holders, txn)
			touched[key] = true
		}
	}
	delete(m.held, txn)
	keys := make([]message.Key, 0, len(touched))
	for key := range touched {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var grants []func()
	for _, key := range keys {
		if e := m.entries[key]; e != nil {
			grants = m.promote(key, e, grants)
		}
	}
	for _, g := range grants {
		g()
	}
}

// promote grants queue heads while they are compatible with the holders.
func (m *Manager) promote(key message.Key, e *entry, grants []func()) []func() {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if cur, held := e.holders[w.txn]; held {
			// Queued upgrade: grant when sole holder.
			if cur >= w.mode || len(e.holders) == 1 {
				e.holders[w.txn] = w.mode
				m.note(w.txn, key, w.mode)
				m.dropWait(w.txn, key)
				e.queue = e.queue[1:]
				m.Tracer.Interval(w.txn, trace.KindLockWait, w.at, 0, trace.NoPeer, int64(w.mode))
				if w.grant != nil {
					grants = append(grants, w.grant)
				}
				continue
			}
			return grants
		}
		ok := true
		for _, h := range e.holders {
			if !compatible(h, w.mode) {
				ok = false
				break
			}
		}
		if !ok {
			return grants
		}
		e.holders[w.txn] = w.mode
		m.note(w.txn, key, w.mode)
		m.dropWait(w.txn, key)
		e.queue = e.queue[1:]
		m.Tracer.Interval(w.txn, trace.KindLockWait, w.at, 0, trace.NoPeer, int64(w.mode))
		if w.grant != nil {
			grants = append(grants, w.grant)
		}
	}
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(m.entries, key)
	}
	return grants
}

// Holders returns the transactions holding key, sorted for determinism.
func (m *Manager) Holders(key message.Key) []message.TxnID {
	e := m.entries[key]
	if e == nil {
		return nil
	}
	out := make([]message.TxnID, 0, len(e.holders))
	for t := range e.holders {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// HolderMode returns the mode txn holds on key, or 0.
func (m *Manager) HolderMode(txn message.TxnID, key message.Key) Mode {
	if e := m.entries[key]; e != nil {
		return e.holders[txn]
	}
	return 0
}

// ConflictingHolders returns the transactions other than txn whose hold on
// key is incompatible with mode, sorted for determinism. The replication
// engines consult it to decide negative acknowledgements and wounds.
func (m *Manager) ConflictingHolders(txn message.TxnID, key message.Key, mode Mode) []message.TxnID {
	e := m.entries[key]
	if e == nil {
		return nil
	}
	var out []message.TxnID
	for t, h := range e.holders {
		if t == txn {
			continue
		}
		if !compatible(h, mode) || !compatible(mode, h) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ConflictingWaiters returns the transactions other than txn queued on key
// whose requests are incompatible with mode, sorted for determinism. A
// wound-wait requester must consider these too: they will be granted ahead
// of it (FIFO), so an older requester behind a younger waiter would
// otherwise wait on a younger transaction unwounded.
func (m *Manager) ConflictingWaiters(txn message.TxnID, key message.Key, mode Mode) []message.TxnID {
	e := m.entries[key]
	if e == nil {
		return nil
	}
	var out []message.TxnID
	seen := make(map[message.TxnID]bool)
	for _, w := range e.queue {
		if w.txn == txn || seen[w.txn] {
			continue
		}
		if !compatible(w.mode, mode) || !compatible(mode, w.mode) {
			seen[w.txn] = true
			out = append(out, w.txn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// HeldKeys returns the keys txn holds, sorted.
func (m *Manager) HeldKeys(txn message.TxnID) []message.Key {
	hm := m.held[txn]
	out := make([]message.Key, 0, len(hm))
	for k := range hm {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Locks returns the total number of held (txn, key) pairs, a leak metric.
func (m *Manager) Locks() int {
	n := 0
	for _, hm := range m.held {
		n += len(hm)
	}
	return n
}

// Waiters returns the total queued requests.
func (m *Manager) Waiters() int {
	n := 0
	for _, e := range m.entries {
		n += len(e.queue)
	}
	return n
}

// WaitsFor returns the waits-for edges of the current table: each queued
// request waits for every incompatible holder and for every earlier queued
// incompatible request.
func (m *Manager) WaitsFor() map[message.TxnID][]message.TxnID {
	g := make(map[message.TxnID][]message.TxnID)
	for _, e := range m.entries {
		for qi, w := range e.queue {
			for t, h := range e.holders {
				if t == w.txn {
					continue
				}
				if !compatible(h, w.mode) || !compatible(w.mode, h) {
					g[w.txn] = append(g[w.txn], t)
				}
			}
			for _, prev := range e.queue[:qi] {
				if prev.txn == w.txn {
					continue
				}
				if !compatible(prev.mode, w.mode) || !compatible(w.mode, prev.mode) {
					g[w.txn] = append(g[w.txn], prev.txn)
				}
			}
		}
	}
	return g
}

// DetectDeadlock returns one cycle of the waits-for graph, or nil.
func (m *Manager) DetectDeadlock() []message.TxnID {
	g := m.WaitsFor()
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[message.TxnID]int)
	var stack []message.TxnID
	var cycle []message.TxnID
	var dfs func(t message.TxnID) bool
	dfs = func(t message.TxnID) bool {
		color[t] = grey
		stack = append(stack, t)
		for _, u := range g[t] {
			switch color[u] {
			case grey:
				// Found a cycle: slice the stack from u.
				for i, s := range stack {
					if s == u {
						cycle = append(cycle, stack[i:]...)
						return true
					}
				}
			case white:
				if dfs(u) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[t] = black
		return false
	}
	nodes := make([]message.TxnID, 0, len(g))
	for t := range g {
		nodes = append(nodes, t)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Less(nodes[j]) })
	for _, t := range nodes {
		if color[t] == white && dfs(t) {
			return cycle
		}
	}
	return nil
}
