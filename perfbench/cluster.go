package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/livenet"
	"repro/internal/message"
	"repro/internal/sgraph"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/trace"
)

// traceCap is the per-site span ring of a traced run, sized so a window of
// several seconds at the measured rates drops nothing (drops are reported).
const traceCap = 1 << 20

func newRingInfo(w *workload, keys []message.Key) (ringInfo, error) {
	ring, err := shard.NewRing(shardConfig(w), sites)
	if err != nil {
		return ringInfo{}, err
	}
	ri := ringInfo{ring: ring, groupOf: make([]message.GroupID, len(keys)), groupKeys: make([][]int, w.groups)}
	for i, k := range keys {
		g := ring.GroupOf(k)
		ri.groupOf[i] = g
		ri.groupKeys[g] = append(ri.groupKeys[g], i)
	}
	for s := 0; s < sites; s++ {
		ri.siteGroups = append(ri.siteGroups, ring.SiteGroups(message.SiteID(s)))
	}
	return ri, nil
}

func shardConfig(w *workload) shard.Config { return shard.Config{Groups: w.groups, RF: 2} }

// unit is one durable replica at a site: the whole store under full
// replication, one group's store under partial replication.
type unit struct {
	group   message.GroupID
	sharded bool
	dir     string
	wal     *storage.WAL
}

// preload writes the keyspace into template WAL directories, one per
// replica content: tmpl/all for full replication, tmpl/g<N> per group.
// Each key is one record at its own index with the zero (initial) writer.
func preload(w *workload, in *inputs, tmpl string) error {
	write := func(dir string, keyIdx []int) error {
		wal, err := storage.OpenSegments(dir, segmentBytes)
		if err != nil {
			return err
		}
		wal.SetGrouped(true)
		for i, k := range keyIdx {
			v := append([]byte(nil), in.values[k%len(in.values)]...)
			stamp(v, 0)
			if err := wal.Append(storage.Record{Index: uint64(i + 1), Writes: []message.KV{{Key: in.keys[k], Value: v}}}); err != nil {
				return err
			}
			if wal.Pending() >= 4096 {
				if _, err := wal.Flush(); err != nil {
					return err
				}
			}
		}
		if _, err := wal.Flush(); err != nil {
			return err
		}
		return wal.Close()
	}
	if w.groups > 1 {
		for g, ks := range in.ring.groupKeys {
			if err := write(filepath.Join(tmpl, message.GroupID(g).String()), ks); err != nil {
				return err
			}
		}
		return nil
	}
	all := make([]int, len(in.keys))
	for i := range all {
		all[i] = i
	}
	return write(filepath.Join(tmpl, "all"), all)
}

// stamp writes the issuing transaction's sequence into a value's first
// eight bytes (0 for preloaded values), so the checker can tell whose
// write a stored version is.
func stamp(v []byte, seq uint64) { binary.LittleEndian.PutUint64(v, seq) }

func stampOf(v []byte) (uint64, bool) {
	if len(v) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(v), true
}

// cloneWAL gives dst its own copy of the preloaded log in src: sealed
// segments are hard-linked (recovery only reads them, and checkpoint
// truncation only unlinks them), the last one, which recovery reopens
// for appending, is copied.
func cloneWAL(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	segs, err := storage.SegmentFiles(src)
	if err != nil {
		return err
	}
	for i, s := range segs {
		d := filepath.Join(dst, filepath.Base(s))
		if i < len(segs)-1 {
			err = os.Link(s, d)
		} else {
			err = copyFile(s, d)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// cluster is one live n-site deployment.
type cluster struct {
	w       *workload
	in      *inputs
	hosts   []*livenet.Host
	engines []core.Engine
	units   [][]*unit // per site
	taps    []*tap    // traced run only
	tracers []*trace.Tracer
	offsets []time.Duration // per site: benchmark clock minus host clock
	rec     *sgraph.Recorder
	closed  bool

	setup             time.Duration
	replayUsPerRecord float64
}

// startCluster copies the preload template into dir, then — timed as the
// set-up — recovers every site's WAL in turn, starts the hosts, and
// waits until a probe transaction has committed from every site.
func startCluster(w *workload, in *inputs, tmpl, dir string, traced bool) (_ *cluster, err error) {
	c := &cluster{w: w, in: in, units: make([][]*unit, sites)}
	var lns []net.Listener
	defer func() {
		if err != nil {
			// Hosts that never started do not own their listeners.
			for _, l := range lns {
				l.Close()
			}
			c.close()
		}
	}()
	ring := in.ring.ring
	for s := 0; s < sites; s++ {
		if ring == nil {
			u := &unit{dir: filepath.Join(dir, fmt.Sprint(s))}
			if err := cloneWAL(filepath.Join(tmpl, "all"), u.dir); err != nil {
				return nil, err
			}
			c.units[s] = []*unit{u}
			continue
		}
		for _, g := range ring.SiteGroups(message.SiteID(s)) {
			u := &unit{group: g, sharded: true, dir: filepath.Join(dir, fmt.Sprint(s), g.String())}
			if err := cloneWAL(filepath.Join(tmpl, g.String()), u.dir); err != nil {
				return nil, err
			}
			c.units[s] = append(c.units[s], u)
		}
	}
	addrs := make(map[message.SiteID]string, sites)
	for s := 0; s < sites; s++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[message.SiteID(s)] = ln.Addr().String()
	}
	if traced {
		c.rec = sgraph.NewRecorder()
	}

	start := time.Now()
	type recovered struct {
		store *storage.Store
		stack *message.StackSync
		n     int
		took  time.Duration
		err   error
	}
	rs := make([][]recovered, sites)
	for s := range c.units {
		rs[s] = make([]recovered, len(c.units[s]))
		for i, u := range c.units[s] {
			r := &rs[s][i]
			t0 := time.Now()
			r.store, u.wal, r.stack, r.err = recoverUnit(w, u.dir)
			r.took = time.Since(t0)
			if r.store != nil {
				r.n = r.store.Len()
			}
		}
	}
	var replayed int
	var replayTook time.Duration
	for s := range rs {
		for _, r := range rs[s] {
			if r.err != nil {
				return nil, fmt.Errorf("recover: %w", r.err)
			}
			replayed += r.n
			replayTook += r.took
		}
	}
	c.replayUsPerRecord = float64(replayTook.Microseconds()) / float64(replayed)

	for s := 0; s < sites; s++ {
		h, err := livenet.New(livenet.Config{ID: message.SiteID(s), Addrs: addrs, Listener: lns[s]})
		if err != nil {
			return nil, err
		}
		// Engines time their intervals on the host clock, so each tracer
		// reads it too; the offset maps host time onto the benchmark's
		// clock, the one time base all sites' spans are stitched on.
		c.offsets = append(c.offsets, now()-h.Now())
		cfg := core.Config{
			Recorder:    c.rec,
			GroupCommit: commitpipe.Policy{MaxBatch: 64, MaxDelay: 2 * time.Millisecond},
		}
		var rt env.Runtime = h
		if traced {
			tr := trace.New(message.SiteID(s), traceCap, h.Now)
			h.SetTracer(tr)
			cfg.Tracer = tr
			c.tracers = append(c.tracers, tr)
			tp := &tap{Host: h, counts: map[sig]int64{}, samples: map[sig]message.Message{}}
			c.taps = append(c.taps, tp)
			rt = tp
		}
		us := c.units[s]
		var e core.Engine
		switch {
		case w.groups > 1:
			sc := shardConfig(w)
			cfg.Shard = &sc
			cfg.FailureInterval = 500 * time.Millisecond
			cfg.FailureTimeout = 2500 * time.Millisecond
			byGroup := map[message.GroupID]int{}
			for i, u := range us {
				byGroup[u.group] = i
			}
			cfg.GroupWAL = func(g message.GroupID) *storage.WAL { return us[byGroup[g]].wal }
			cfg.GroupInitialStore = func(g message.GroupID) *storage.Store { return rs[s][byGroup[g]].store }
			se, err := core.NewSharded(rt, cfg)
			if err != nil {
				return nil, err
			}
			e = se
		default:
			cfg.WAL = us[0].wal
			cfg.InitialStore = rs[s][0].store
			cfg.InitialStack = rs[s][0].stack
			if w.ckptBytes > 0 {
				cfg.Checkpoint = checkpoint.Policy{Dir: us[0].dir, MaxWALBytes: w.ckptBytes, Retain: 3}
			}
			switch w.proto {
			case "atomic":
				e = core.NewAtomic(rt, cfg)
			case "reliable":
				e = core.NewReliable(rt, cfg)
			case "causal":
				cfg.CausalHeartbeat = 25 * time.Millisecond
				e = core.NewCausal(rt, cfg)
			default:
				return nil, fmt.Errorf("unknown protocol %q", w.proto)
			}
		}
		h.Bind(e)
		c.hosts = append(c.hosts, h)
		c.engines = append(c.engines, e)
	}
	for _, h := range c.hosts {
		if err := h.Start(); err != nil {
			return nil, err
		}
	}
	if err := c.probe(); err != nil {
		return nil, err
	}
	c.setup = time.Since(start)
	return c, nil
}

// recoverUnit rebuilds one replica from its WAL directory with the calls
// cmd/replicadb uses at boot.
func recoverUnit(w *workload, dir string) (*storage.Store, *storage.WAL, *message.StackSync, error) {
	if w.ckptBytes > 0 {
		st, wal, info, err := checkpoint.Recover(dir, segmentBytes)
		if err != nil {
			return nil, nil, nil, err
		}
		return st, wal, info.Stack, nil
	}
	st, wal, err := storage.RecoverSegments(dir, segmentBytes)
	return st, wal, nil, err
}

// probe commits one update from every site (concurrently) and returns once
// all have committed: the cluster is then serving.
func (c *cluster) probe() error {
	errs := make(chan error, len(c.hosts))
	for s := range c.hosts {
		go func() {
			key := c.probeKey(s)
			res, err := livenet.ExecuteTxn(c.hosts[s], c.engines[s], livenet.TxnSpec{
				Writes: []message.KV{{Key: key, Value: message.Value("ready")}},
			}, 20*time.Second)
			if err == nil && !res.Committed {
				err = fmt.Errorf("probe at site %d aborted: %s", s, res.Reason)
			}
			errs <- err
		}()
	}
	var first error
	for range c.hosts {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// probeKey is a key replicated at site s (its first local group under
// partial replication).
func (c *cluster) probeKey(s int) message.Key {
	if c.w.groups <= 1 {
		return message.Key(fmt.Sprintf("probe-%d", s))
	}
	want := c.in.ring.siteGroups[s][0]
	for i := 0; ; i++ {
		if k := message.Key(fmt.Sprintf("probe-%d-%d", s, i)); c.in.ring.ring.GroupOf(k) == want {
			return k
		}
	}
}

// store returns one unit's store and pipeline; event loop only.
func (c *cluster) store(s int, u *unit) (*storage.Store, *commitpipe.Pipeline) {
	if se, ok := c.engines[s].(*core.ShardedEngine); ok && u.sharded {
		return se.GroupStore(u.group), se.GroupPipeline(u.group)
	}
	return c.engines[s].Store(), c.engines[s].Pipeline()
}

func (c *cluster) checkpointer(s int, u *unit) *checkpoint.Checkpointer {
	if se, ok := c.engines[s].(*core.ShardedEngine); ok && u.sharded {
		return se.GroupCheckpointer(u.group)
	}
	return c.engines[s].Checkpointer()
}

// flush forces every open group-commit batch to disk.
func (c *cluster) flush() {
	for s, h := range c.hosts {
		h.Do(func() {
			for _, u := range c.units[s] {
				_, p := c.store(s, u)
				p.Flush()
			}
		})
	}
}

// verify waits for replicas to converge after the load has drained and
// checks that every replica of each group holds the same state and that
// no aborted transaction's write is visible anywhere.
func (c *cluster) verify(aborted map[uint64]bool) []string {
	c.flush()
	var bad []string
	deadline := time.Now().Add(15 * time.Second)
	for {
		digests := map[message.GroupID]map[uint64][]int{}
		bad = bad[:0]
		for s, h := range c.hosts {
			h.Do(func() {
				for _, u := range c.units[s] {
					st, _ := c.store(s, u)
					d, leaks := digest(st, c.w.proto != "atomic", aborted)
					for _, l := range leaks {
						bad = append(bad, fmt.Sprintf("site %d %s: %s", s, u.group, l))
					}
					if digests[u.group] == nil {
						digests[u.group] = map[uint64][]int{}
					}
					digests[u.group][d] = append(digests[u.group][d], s)
				}
			})
		}
		diverged := false
		for g, ds := range digests {
			if len(ds) > 1 {
				diverged = true
				if time.Now().After(deadline) {
					bad = append(bad, fmt.Sprintf("replicas of %s diverge: %v%s", g, ds, c.divergence(g)))
				}
			}
		}
		if !diverged || time.Now().After(deadline) || len(bad) > 0 {
			return bad
		}
		time.Sleep(200 * time.Millisecond)
		c.flush()
	}
}

// divergence names the first keys whose version chains differ between
// the replicas of group g, with each replica's newest writers.
func (c *cluster) divergence(g message.GroupID) string {
	snaps := map[int]map[message.Key][]message.VersionRec{}
	for s, h := range c.hosts {
		for _, u := range c.units[s] {
			if u.group != g {
				continue
			}
			h.Do(func() {
				st, _ := c.store(s, u)
				m := map[message.Key][]message.VersionRec{}
				for _, e := range st.Snapshot() {
					m[e.Key] = e.Versions
				}
				snaps[s] = m
			})
		}
	}
	// Chains compare as in digest: by writer, plus the index only where
	// it is global.
	chain := func(vs []message.VersionRec) string {
		out := ""
		for _, v := range vs {
			if c.w.proto == "atomic" {
				out += fmt.Sprintf(" %s@%d", v.Writer, v.Index)
			} else {
				out += " " + v.Writer.String()
			}
		}
		return "[" + out + " ]"
	}
	keys := map[message.Key]bool{}
	for _, m := range snaps {
		for k := range m {
			keys[k] = true
		}
	}
	var out []string
	for k := range keys {
		var first string
		same := true
		desc := ""
		for s := 0; s < sites; s++ {
			m, ok := snaps[s]
			if !ok {
				continue
			}
			ch := chain(m[k])
			if first == "" {
				first = ch
			}
			same = same && ch == first
			desc += fmt.Sprintf(" site%d=%s", s, ch)
		}
		if !same {
			out = append(out, fmt.Sprintf("%s:%s", k, desc))
		}
	}
	sort.Strings(out)
	return fmt.Sprintf("; %d keys differ: %s", len(out), strings.Join(out[:min(len(out), 3)], "; "))
}

// digest hashes a store's committed state: every key's version chain as
// (writer, value), plus the commit index where it is global (protocol A).
// It also reports versions written by aborted transactions.
func digest(st *storage.Store, perSiteIndex bool, aborted map[uint64]bool) (uint64, []string) {
	h := fnv.New64a()
	var leaks []string
	var b [8]byte
	for _, e := range st.Snapshot() {
		h.Write([]byte(e.Key))
		for _, v := range e.Versions {
			if !perSiteIndex {
				binary.LittleEndian.PutUint64(b[:], v.Index)
				h.Write(b[:])
			}
			binary.LittleEndian.PutUint64(b[:], uint64(v.Writer.Site)<<48^v.Writer.Seq)
			h.Write(b[:])
			h.Write(v.Value)
			if tag, ok := stampOf(v.Value); ok && aborted[tag] && len(leaks) < 5 {
				leaks = append(leaks, fmt.Sprintf("key %s holds a write of aborted transaction %d", e.Key, tag))
			}
		}
	}
	return h.Sum64(), leaks
}

// close flushes the pipelines and stops every host, then closes the logs.
func (c *cluster) close() {
	if c.closed {
		return
	}
	c.closed = true
	c.flush()
	for _, h := range c.hosts {
		h.Close()
	}
	for _, us := range c.units {
		for _, u := range us {
			if u.wal != nil {
				u.wal.Close()
			}
		}
	}
}

// durability re-runs recovery on every closed replica's directory and
// checks it reproduces the live store exactly: every acknowledged write
// reached the disk.
func (c *cluster) durability() []string {
	var bad []string
	for s := range c.hosts {
		for _, u := range c.units[s] {
			live, _ := c.store(s, u)
			want, _ := digest(live, false, nil)
			st, wal, _, err := recoverUnit(c.w, u.dir)
			if err != nil {
				bad = append(bad, fmt.Sprintf("site %d %s: recovery: %v", s, u.group, err))
				continue
			}
			wal.Close()
			if got, _ := digest(st, false, nil); got != want || st.Len() != live.Len() {
				bad = append(bad, fmt.Sprintf("site %d %s: recovered store (%d keys) differs from the live store (%d keys)",
					s, u.group, st.Len(), live.Len()))
			}
		}
	}
	return bad
}

// tap is the runtime a traced engine sends through: it forwards to the
// host and keeps, per message signature, a count and the first instance
// (the commit message mix the codec cost is measured on).
type tap struct {
	*livenet.Host
	mu      sync.Mutex
	counts  map[sig]int64
	samples map[sig]message.Message
}

// sig is a message's kind with the kinds of the envelopes it nests.
type sig [3]message.Kind

func sigOf(m message.Message) sig {
	var s sig
	for i := 0; i < len(s) && m != nil; i++ {
		s[i] = m.Kind()
		switch t := m.(type) {
		case *message.GroupMsg:
			m = t.Inner
		case *message.Bcast:
			m = t.Payload
		default:
			m = nil
		}
	}
	return s
}

func (s sig) String() string {
	out := ""
	for _, k := range s {
		if k != 0 {
			if out != "" {
				out += "/"
			}
			out += k.String()
		}
	}
	return out
}

// Send implements env.Runtime.
func (t *tap) Send(to message.SiteID, m message.Message) {
	if _, ok := message.TxnOf(m); ok && to != t.ID() {
		k := sigOf(m)
		t.mu.Lock()
		t.counts[k]++
		if t.samples[k] == nil {
			t.samples[k] = m
		}
		t.mu.Unlock()
	}
	t.Host.Send(to, m)
}
