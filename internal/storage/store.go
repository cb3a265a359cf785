// Package storage implements each site's local database: a multiversion
// key-value store with an optional write-ahead log and snapshot/restore for
// state transfer to recovering sites.
//
// Versions are tagged with the commit index that installed them. Protocols
// R and C use a per-site commit sequence; protocol A uses the global
// total-order index, which is what makes its snapshot reads and
// certification deterministic across sites.
package storage

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/message"
)

// ErrVersionGone is returned when a read at an old snapshot index reaches
// below the garbage-collection horizon of a key's version chain. Callers
// abort and restart the reading transaction.
var ErrVersionGone = errors.New("storage: version before GC horizon")

// ErrStaleIndex is returned when Apply is called with a commit index not
// greater than the key's newest version, which would reorder committed
// writes.
var ErrStaleIndex = errors.New("storage: apply index not monotone")

// Store is one site's versioned database. It is owned by the site's event
// loop and performs no internal locking.
//
// Version arrays are append-only: every mutation either appends past a
// chain's current length (install, MergeDelta) or swaps a freshly allocated
// array into the map (MaxVersions trim, Restore, MergeDelta's Replace). No
// path rewrites an element below a chain's length. That is what lets View
// hand out chains that share the store's arrays: a reader of a view may run
// on another goroutine while the loop keeps installing.
type Store struct {
	versions  map[message.Key][]message.VersionRec
	truncated map[message.Key]bool // keys whose old versions were GC'd
	applied   uint64
	wal       *WAL
	// MaxVersions caps each key's version chain; older versions are
	// discarded. New initializes it to DefaultMaxVersions; set it to zero
	// after New for unbounded retention.
	MaxVersions int
}

// DefaultMaxVersions is the per-key version-chain cap New applies. Bounded
// retention is the safe default: unbounded chains grow without limit under
// write-heavy workloads, so opting out (MaxVersions = 0) is explicit.
const DefaultMaxVersions = 64

// New creates an empty store with MaxVersions set to DefaultMaxVersions.
// A nil wal disables logging.
func New(wal *WAL) *Store {
	return &Store{
		versions:    make(map[message.Key][]message.VersionRec),
		truncated:   make(map[message.Key]bool),
		wal:         wal,
		MaxVersions: DefaultMaxVersions,
	}
}

// WAL returns the log this store appends to (nil when logging is disabled).
func (s *Store) WAL() *WAL { return s.wal }

// SetWAL attaches (or detaches, with nil) the log future applies append to.
// Recovery paths that replay without re-logging use it to wire the reopened
// log after replay finishes.
func (s *Store) SetWAL(w *WAL) { s.wal = w }

// Get returns the newest committed version of key.
func (s *Store) Get(key message.Key) (message.VersionRec, bool) {
	vs := s.versions[key]
	if len(vs) == 0 {
		return message.VersionRec{}, false
	}
	return vs[len(vs)-1], true
}

// GetAt returns the newest version of key with Index <= at. A missing key
// yields (zero, false, nil); a GC'd version yields ErrVersionGone.
func (s *Store) GetAt(key message.Key, at uint64) (message.VersionRec, bool, error) {
	vs := s.versions[key]
	if len(vs) == 0 {
		return message.VersionRec{}, false, nil
	}
	// Binary search for the last version with Index <= at.
	i := sort.Search(len(vs), func(i int) bool { return vs[i].Index > at })
	if i == 0 {
		// The chain starts above the requested snapshot: either the key was
		// created after the snapshot (not visible — fine) or GC removed the
		// version the snapshot needs.
		if s.truncated[key] {
			return message.VersionRec{}, false, ErrVersionGone
		}
		return message.VersionRec{}, false, nil
	}
	return vs[i-1], true, nil
}

// Apply installs a committed transaction's writes at the given commit
// index. The index must exceed every written key's current newest version.
func (s *Store) Apply(txn message.TxnID, writes []message.KV, index uint64) error {
	for _, w := range writes {
		if vs := s.versions[w.Key]; len(vs) > 0 && vs[len(vs)-1].Index >= index {
			return fmt.Errorf("%w: key %q has version %d, apply at %d", ErrStaleIndex, w.Key, vs[len(vs)-1].Index, index)
		}
	}
	if s.wal != nil {
		if err := s.wal.Append(Record{Index: index, Txn: txn, Writes: writes}); err != nil {
			return fmt.Errorf("wal append: %w", err)
		}
	}
	s.install(txn, writes, index)
	return nil
}

// install appends the writes' versions and advances the applied index;
// validation and logging already happened.
func (s *Store) install(txn message.TxnID, writes []message.KV, index uint64) {
	for _, w := range writes {
		vs := append(s.versions[w.Key], message.VersionRec{Index: index, Writer: txn, Value: w.Value})
		if s.MaxVersions > 0 && len(vs) > s.MaxVersions {
			vs = append([]message.VersionRec(nil), vs[len(vs)-s.MaxVersions:]...)
			s.truncated[w.Key] = true
		}
		s.versions[w.Key] = vs
	}
	if index > s.applied {
		s.applied = index
	}
}

// BatchEntry is one committed transaction inside an ApplyBatch group.
type BatchEntry struct {
	Txn    message.TxnID
	Writes []message.KV
	Index  uint64
}

// ApplyBatch installs a certified group of committed transactions under one
// traversal: the whole group is validated against the version chains (and
// against itself) before any write is logged or installed, so a bad entry
// rejects the group atomically. With a grouped WAL the group's records all
// land in the buffer of a single future fsync.
func (s *Store) ApplyBatch(entries []BatchEntry) error {
	// Validate first: every entry's index must exceed each written key's
	// newest version, counting versions earlier group entries will install.
	tip := make(map[message.Key]uint64, len(entries))
	for _, e := range entries {
		for _, w := range e.Writes {
			last, seen := tip[w.Key]
			if !seen {
				if vs := s.versions[w.Key]; len(vs) > 0 {
					last, seen = vs[len(vs)-1].Index, true
				}
			}
			if seen && last >= e.Index {
				return fmt.Errorf("%w: key %q has version %d, batch apply at %d", ErrStaleIndex, w.Key, last, e.Index)
			}
			tip[w.Key] = e.Index
		}
	}
	if s.wal != nil {
		for _, e := range entries {
			if err := s.wal.Append(Record{Index: e.Index, Txn: e.Txn, Writes: e.Writes}); err != nil {
				return fmt.Errorf("wal append: %w", err)
			}
		}
	}
	for _, e := range entries {
		s.install(e.Txn, e.Writes, e.Index)
	}
	return nil
}

// Applied returns the highest commit index applied so far.
func (s *Store) Applied() uint64 { return s.applied }

// Len returns the number of keys present.
func (s *Store) Len() int { return len(s.versions) }

// VersionCount returns the total number of retained versions, a memory
// metric.
func (s *Store) VersionCount() int {
	n := 0
	for _, vs := range s.versions {
		n += len(vs)
	}
	return n
}

// Snapshot serializes the full committed state for transfer to a
// recovering site, keys in sorted order.
func (s *Store) Snapshot() []message.SnapshotEntry {
	keys := make([]message.Key, 0, len(s.versions))
	for k := range s.versions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]message.SnapshotEntry, 0, len(keys))
	for _, k := range keys {
		src := s.versions[k]
		vs := make([]message.VersionRec, len(src))
		copy(vs, src)
		out = append(out, message.SnapshotEntry{Key: k, Versions: vs})
	}
	return out
}

// View returns the committed state as entries that share the store's
// version arrays, in map order (unsorted). Each chain is clipped to its
// current length and capacity, so later appends never show through; by the
// append-only invariant on Store a view stays valid, unchanged, and safe to
// read from another goroutine while the owning loop keeps applying. It is
// the O(keys) capture a background checkpoint encodes off the loop;
// Snapshot is the sorted deep copy for state transfer.
func (s *Store) View() []message.SnapshotEntry {
	out := make([]message.SnapshotEntry, 0, len(s.versions))
	for k, vs := range s.versions {
		//reprolint:allow maporder a view is a set of chains; its only consumer (the checkpoint body) is order-free, and Restore rebuilds a map
		out = append(out, message.SnapshotEntry{Key: k, Versions: vs[:len(vs):len(vs)]})
	}
	return out
}

// Restore replaces the store's contents with a snapshot. Each restored
// chain is trimmed to this store's MaxVersions bound — the donor may retain
// more versions than we do — and trimmed keys are marked truncated so old
// snapshot reads fail with ErrVersionGone instead of misreading a hole.
func (s *Store) Restore(entries []message.SnapshotEntry, applied uint64) {
	s.versions = make(map[message.Key][]message.VersionRec, len(entries))
	s.truncated = make(map[message.Key]bool)
	for _, e := range entries {
		src := e.Versions
		if s.MaxVersions > 0 && len(src) > s.MaxVersions {
			src = src[len(src)-s.MaxVersions:]
			s.truncated[e.Key] = true
		}
		vs := make([]message.VersionRec, len(src))
		copy(vs, src)
		s.versions[e.Key] = vs
		if e.Replace {
			// The donor's own chain was GC'd below its oldest shipped
			// version; reads below it must not report key-absent.
			s.truncated[e.Key] = true
		}
	}
	s.applied = applied
}

// Delta serializes the state a peer that has applied every commit index
// <= since is missing, keys in sorted order. For most keys that is just the
// versions with Index > since (the peer appends them to its chain). When
// GC has already discarded versions in (since, oldest-retained) the whole
// retained chain is sent with Replace set: appending would leave a silent
// hole, so the receiver swaps its chain and marks the key truncated.
func (s *Store) Delta(since uint64) []message.SnapshotEntry {
	keys := make([]message.Key, 0, len(s.versions))
	for k, vs := range s.versions {
		if len(vs) > 0 && vs[len(vs)-1].Index > since {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]message.SnapshotEntry, 0, len(keys))
	for _, k := range keys {
		src := s.versions[k]
		i := sort.Search(len(src), func(i int) bool { return src[i].Index > since })
		replace := false
		if i == 0 && s.truncated[k] {
			// Versions at or below since were GC'd here; the receiver's
			// chain cannot be patched by appending alone.
			replace = true
		}
		vs := make([]message.VersionRec, len(src)-i)
		copy(vs, src[i:])
		out = append(out, message.SnapshotEntry{Key: k, Versions: vs, Replace: replace})
	}
	return out
}

// MergeDelta applies a Delta produced against this store's applied index:
// Replace entries swap the key's chain (marking it truncated), others
// append the versions newer than the local tip. applied becomes the
// donor's applied index when it is ahead. MaxVersions is enforced on the
// merged chains like any other install.
func (s *Store) MergeDelta(entries []message.SnapshotEntry, applied uint64) {
	for _, e := range entries {
		if e.Replace {
			src := e.Versions
			if s.MaxVersions > 0 && len(src) > s.MaxVersions {
				src = src[len(src)-s.MaxVersions:]
			}
			vs := make([]message.VersionRec, len(src))
			copy(vs, src)
			s.versions[e.Key] = vs
			s.truncated[e.Key] = true
			continue
		}
		vs := s.versions[e.Key]
		tip := uint64(0)
		if len(vs) > 0 {
			tip = vs[len(vs)-1].Index
		}
		for _, v := range e.Versions {
			if v.Index > tip {
				vs = append(vs, v)
			}
		}
		if s.MaxVersions > 0 && len(vs) > s.MaxVersions {
			vs = append([]message.VersionRec(nil), vs[len(vs)-s.MaxVersions:]...)
			s.truncated[e.Key] = true
		}
		s.versions[e.Key] = vs
	}
	if applied > s.applied {
		s.applied = applied
	}
}

// VersionOrder returns the writer transactions of key's retained versions
// in commit order. The replica-consistency checker compares these across
// sites.
func (s *Store) VersionOrder(key message.Key) []message.TxnID {
	vs := s.versions[key]
	out := make([]message.TxnID, len(vs))
	for i, v := range vs {
		out[i] = v.Writer
	}
	return out
}
