// Command perfbench runs a live replicated-database cluster in one process
// (n livenet hosts on loopback TCP, each with a segmented WAL recovered
// from a preloaded keyspace) and drives it with one seeded closed-loop
// generator through the public async engine API. It prints every
// end-to-end metric (with --trace 0) or every per-layer metric (with
// --trace 1), checks the cluster's outputs for correctness, and ends with
// one JSON line. See README.md for the workloads and the metric map.
//
//	go build -o perfbench . && ./perfbench --workload atomic-wal --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/message"
	"repro/internal/shard"
)

// workload is one cluster configuration plus its transaction mix.
type workload struct {
	name   string
	proto  string // reliable | causal | atomic
	groups int    // > 1: partial replication over this many groups at rf 2

	hotKeys int // > 0: hotFrac of key picks come from the first hotKeys keys
	hotFrac float64

	roFrac     float64 // share of read-only transactions
	roReads    int
	updReads   int // an update reads its first updReads write keys
	updWrites  int
	xshardFrac float64 // share of updates whose second key lies in another group

	ckptBytes int64 // checkpoint bytes trigger (0: no checkpointer)
}

const (
	sites = 3
	// inFlight is the number of transactions in flight per site. At 4 the
	// cluster keeps part of the 2 vCPUs idle, so its latency is set by the
	// flush timer and the protocol rounds rather than by how much CPU the
	// host's other tenants leave it; at 8 it saturates them.
	inFlight   = 4
	keySpace   = 100_000
	valueBytes = 100
	// segmentBytes is small enough that checkpoints can truncate sealed
	// WAL segments within a run.
	segmentBytes = 4 << 20
)

var workloads = []*workload{
	{
		name: "atomic-wal", proto: "atomic", updReads: 1, updWrites: 2,
		// Every site checkpoints several times a run.
		ckptBytes: 4 << 20,
	},
	{
		name: "reliable-contended", proto: "reliable", hotKeys: 1000, hotFrac: 0.9,
		roFrac: 0.2, roReads: 2, updReads: 2, updWrites: 2,
	},
	{
		name: "causal-read", proto: "causal", roFrac: 0.95, roReads: 2, updReads: 1, updWrites: 2,
	},
	{
		name: "sharded-xshard", proto: "atomic", groups: 3, updReads: 1, updWrites: 2, xshardFrac: 0.2,
	},
}

// setupRepeats is how many times one run sets a cluster up; setup_s is
// their median.
const setupRepeats = 5

// warmup runs the closed loop before the measured window opens, so
// connections, caches and the heap settle.
const warmup = 2 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured window in seconds")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from a separate traced run")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, window time.Duration, traced bool) error {
	var w *workload
	for _, cand := range workloads {
		if cand.name == name {
			w = cand
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i, cand := range workloads {
			names[i] = cand.name
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if window <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	rng := rand.New(rand.NewSource(seed))
	in, err := newInputs(w, rng)
	if err != nil {
		return err
	}
	tmpl := filepath.Join(root, "preload")
	if err := preload(w, in, tmpl); err != nil {
		return fmt.Errorf("preload: %w", err)
	}

	// The untraced run: setup_s is the median of setupRepeats set-ups; the
	// last cluster is measured.
	var setups []float64
	var replay []float64
	var c *cluster
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.close()
		}
		c, err = startCluster(w, in, tmpl, filepath.Join(root, fmt.Sprintf("run%d", i)), false)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, c.setup.Seconds())
		replay = append(replay, c.replayUsPerRecord)
	}
	res, err := measure(c, window)
	if err != nil {
		c.close()
		return err
	}
	violations := c.verify(res.abortedStamps)
	var probe *overload
	if w.name == "atomic-wal" {
		probe = overloadProbe(c)
	}
	c.close()
	violations = append(violations, c.durability()...)
	res.setup = median(setups)

	out := result{Correct: len(violations) == 0, Attempted: res.attempted, Failed: res.errored + res.timedOut, Metrics: map[string]metric{}}
	if probe != nil {
		fmt.Printf("overload probe: first window with drops %d, unfinished %d, dropped %d (windows %v)\n",
			probe.firstDrop, probe.unfinished, probe.dropped, probe.windows)
	}
	res.printSamples()
	res.genCheck("untraced")
	if !traced {
		res.endToEnd(out.Metrics)
	} else {
		tc, err := startCluster(w, in, tmpl, filepath.Join(root, "traced"), true)
		if err != nil {
			return fmt.Errorf("traced setup: %w", err)
		}
		tres, err := measure(tc, window)
		if err != nil {
			tc.close()
			return err
		}
		violations = append(violations, tc.verify(tres.abortedStamps)...)
		if err := tc.rec.Check(); err != nil {
			violations = append(violations, fmt.Sprintf("1SR: %v", err))
		}
		tc.close()
		violations = append(violations, tc.durability()...)
		out.Correct = len(violations) == 0
		perLayer(out.Metrics, res, tres, tc, median(replay), probe)
	}
	for _, v := range violations {
		fmt.Println("VIOLATION:", v)
	}
	printMetrics(out.Metrics)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%d correctness violations", len(violations))
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// inputs is everything the generator issues, precomputed from the seed
// before any timing starts.
type inputs struct {
	keys   []message.Key
	values [][]byte // random value bodies; bytes 0..7 are stamped per write
	pools  [][]op   // per home site
	ring   ringInfo
}

// ringInfo is the key→group placement of a partially replicated
// workload (nil groupOf for full replication).
type ringInfo struct {
	ring       *shard.Ring
	groupOf    []message.GroupID // per key index
	groupKeys  [][]int           // key indices per group
	siteGroups [][]message.GroupID
}

type txnClass int

const (
	classWrite  txnClass = iota // update (single-shard under partial replication)
	classRead                   // read-only
	classXShard                 // cross-shard update
)

type op struct {
	class  txnClass
	reads  []message.Key
	writes []message.Key
	val    int // index of the first value body
}

// poolSize is the number of precomputed operations per site; the
// generator cycles through them (each issue still writes fresh, uniquely
// stamped values).
const poolSize = 1 << 14

func newInputs(w *workload, rng *rand.Rand) (*inputs, error) {
	in := &inputs{keys: make([]message.Key, keySpace)}
	for i := range in.keys {
		in.keys[i] = message.Key(fmt.Sprintf("key%07d", i))
	}
	in.values = make([][]byte, 4096)
	for i := range in.values {
		in.values[i] = make([]byte, valueBytes)
		rng.Read(in.values[i])
	}
	if w.groups > 1 {
		ri, err := newRingInfo(w, in.keys)
		if err != nil {
			return nil, err
		}
		in.ring = ri
	}
	pick := func() int {
		if w.hotKeys > 0 && rng.Float64() < w.hotFrac {
			return rng.Intn(w.hotKeys)
		}
		return rng.Intn(keySpace)
	}
	in.pools = make([][]op, sites)
	for s := range in.pools {
		pool := make([]op, poolSize)
		for i := range pool {
			o := &pool[i]
			o.val = rng.Intn(len(in.values))
			var ks []int
			switch {
			case w.groups > 1:
				ks = in.shardedKeys(w, s, rng, o)
			case rng.Float64() < w.roFrac:
				o.class = classRead
				ks = distinct(w.roReads, pick)
			default:
				ks = distinct(w.updWrites, pick)
			}
			for j, k := range ks {
				if o.class == classRead || j < w.updReads {
					o.reads = append(o.reads, in.keys[k])
				}
				if o.class != classRead {
					o.writes = append(o.writes, in.keys[k])
				}
			}
		}
		in.pools[s] = pool
	}
	return in, nil
}

// shardedKeys picks an update homed at site s: the first key from a group
// s replicates (so its read is local), the second from the same group or,
// with probability xshardFrac, from another group.
func (in *inputs) shardedKeys(w *workload, s int, rng *rand.Rand, o *op) []int {
	local := in.ring.siteGroups[s]
	var n int
	for _, g := range local {
		n += len(in.ring.groupKeys[g])
	}
	i := rng.Intn(n)
	var first int
	for _, g := range local {
		if i < len(in.ring.groupKeys[g]) {
			first = in.ring.groupKeys[g][i]
			break
		}
		i -= len(in.ring.groupKeys[g])
	}
	g0 := in.ring.groupOf[first]
	g1 := g0
	if rng.Float64() < w.xshardFrac {
		o.class = classXShard
		g1 = message.GroupID((int(g0) + 1 + rng.Intn(w.groups-1)) % w.groups)
	}
	for {
		second := in.ring.groupKeys[g1][rng.Intn(len(in.ring.groupKeys[g1]))]
		if second != first {
			return []int{first, second}
		}
	}
}

func distinct(n int, pick func() int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		k := pick()
		dup := false
		for _, x := range out {
			dup = dup || x == k
		}
		if !dup {
			out = append(out, k)
		}
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty); xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
