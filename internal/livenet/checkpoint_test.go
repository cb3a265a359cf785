package livenet

import (
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/core"
	"repro/internal/message"
	"repro/internal/storage"
)

// TestCheckpointWhileCommitting runs an atomic cluster whose sites
// checkpoint every few milliseconds, off the event loop, while clients
// keep committing to a small, hot keyspace (so version chains keep
// growing and being trimmed under the persists that read them). Run it
// under -race: the persist encodes a View that shares the store's version
// arrays. Afterwards every site's WAL/checkpoint directory must recover to
// exactly the state its live store ended with.
func TestCheckpointWhileCommitting(t *testing.T) {
	const n = 3
	listeners := make([]net.Listener, n)
	addrs := make(map[message.SiteID]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[message.SiteID(i)] = ln.Addr().String()
	}
	const segBytes = 2048
	root := t.TempDir()
	hosts := make([]*Host, n)
	engines := make([]core.Engine, n)
	wals := make([]*storage.WAL, n)
	dirs := make([]string, n)
	for i := range hosts {
		dirs[i] = filepath.Join(root, fmt.Sprintf("site-%d", i))
		w, err := storage.OpenSegments(dirs[i], segBytes)
		if err != nil {
			t.Fatal(err)
		}
		wals[i] = w
		h, err := New(Config{ID: message.SiteID(i), Addrs: addrs, Listener: listeners[i]})
		if err != nil {
			t.Fatal(err)
		}
		e := core.NewAtomic(h, core.Config{
			WAL:         w,
			MaxVersions: 3,
			GroupCommit: commitpipe.Policy{MaxBatch: 8, MaxDelay: time.Millisecond},
			Checkpoint:  checkpoint.Policy{Dir: dirs[i], Interval: 5 * time.Millisecond, Retain: 2},
		})
		h.Bind(e)
		hosts[i], engines[i] = h, e
	}
	for _, h := range hosts {
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
	}
	closed := false
	closeAll := func() {
		if closed {
			return
		}
		closed = true
		for _, h := range hosts {
			h.Close()
		}
		for _, w := range wals {
			w.Close()
		}
	}
	t.Cleanup(closeAll)

	const clients, perClient = 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			site := c % n
			for i := 0; i < perClient; i++ {
				key := message.Key(fmt.Sprintf("k%d", (c+i)%8))
				spec := TxnSpec{
					Reads:  []message.Key{key},
					Writes: []message.KV{{Key: key, Value: message.Value(fmt.Sprintf("c%d-%d", c, i))}},
				}
				if _, err := ExecuteTxn(hosts[site], engines[site], spec, 20*time.Second); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	// Converge on one applied index, then let every site take a checkpoint
	// of the final state.
	deadline := time.Now().Add(15 * time.Second)
	for {
		applied := make([]uint64, n)
		for i, h := range hosts {
			h.Do(func() {
				engines[i].Pipeline().Flush()
				applied[i] = engines[i].Store().Applied()
			})
		}
		if applied[0] > 0 && applied[0] == applied[1] && applied[1] == applied[2] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sites never converged: applied %v", applied)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	for i, h := range hosts {
		var st checkpoint.Stats
		h.Do(func() { st = engines[i].Checkpointer().Stats() })
		if st.Checkpoints < 2 || st.SegmentsTruncated == 0 || st.Errors != 0 {
			t.Fatalf("site %d checkpointer stats %+v: want >=2 checkpoints, truncation, no errors", i, st)
		}
	}
	closeAll() // waits for any persist still in flight

	for i := range hosts {
		live := engines[i].Store().Snapshot()
		st, w, info, err := checkpoint.Recover(dirs[i], segBytes)
		if err != nil {
			t.Fatalf("site %d recover: %v", i, err)
		}
		w.Close()
		if info.CheckpointIndex == 0 {
			t.Fatalf("site %d recovered without a checkpoint", i)
		}
		if got := st.Snapshot(); !reflect.DeepEqual(got, live) {
			t.Fatalf("site %d: recovered store differs from the live one\nlive: %v\ngot:  %v", i, live, got)
		}
		if st.Applied() != engines[i].Store().Applied() {
			t.Fatalf("site %d: recovered applied %d, live %d", i, st.Applied(), engines[i].Store().Applied())
		}
	}
}

// TestCloseWaitsForOffload: Offload's done runs on the loop while the host
// is up; Close blocks until an in-flight work function returns, and the
// work's done is then dropped, never run.
func TestCloseWaitsForOffload(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h, _ := startRawHost(t, 0, map[message.SiteID]string{0: ln.Addr().String()}, ln)

	ran := make(chan struct{})
	h.Do(func() { h.Offload(func() {}, func() { close(ran) }) })
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("done never ran on a live host")
	}

	release := make(chan struct{})
	var worked, doneRan atomic.Bool
	h.Do(func() {
		h.Offload(func() {
			<-release
			worked.Store(true)
		}, func() { doneRan.Store(true) })
	})
	closing := make(chan struct{})
	go func() {
		h.Close()
		close(closing)
	}()
	select {
	case <-closing:
		t.Fatal("Close returned while offloaded work was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closing:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the work finished")
	}
	if !worked.Load() {
		t.Fatal("Close returned before the work finished")
	}
	if doneRan.Load() {
		t.Fatal("done ran after the host closed")
	}
}
