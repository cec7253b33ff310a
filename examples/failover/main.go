// Failover example — the paper's §5 resilience story end to end: a cluster
// with RDMA Logging replication takes writes, a primary shard is killed
// abruptly, the SWAT leader observes the liveness change through the
// coordination service and promotes the most caught-up secondary, and every
// acknowledged write remains readable under the new routing epoch.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"hydradb"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	opts := hydradb.DefaultOptions()
	opts.ServerMachines = 3
	opts.ShardsPerMachine = 2
	opts.Replicas = 1 // each primary logs to one secondary on another machine
	opts.ArenaBytesPerShard = 16 << 20
	opts.MaxItemsPerShard = 1 << 16
	db, err := hydradb.Start(opts)
	if err != nil {
		return fmt.Errorf("start: %w", err)
	}
	defer db.Close()
	fmt.Fprintln(w, "started:", db, "epoch", db.Cluster().Epoch())

	// One batch keeps every shard's mailbox busy at once; the batch returns
	// only after each write is acknowledged.
	c := db.NewClient()
	const n = 2000
	pairs := make([]hydradb.KV, n)
	keys := make([][]byte, n)
	for i := range pairs {
		keys[i] = []byte(fmt.Sprintf("user%08d", i))
		pairs[i] = hydradb.KV{Key: keys[i], Val: []byte(fmt.Sprintf("value-%d", i))}
	}
	if err := c.MultiPut(pairs); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	fmt.Fprintf(w, "acknowledged %d writes (each RDMA-logged to a secondary before the client saw OK)\n", n)

	// Kill the busiest primary.
	victim := db.ShardIDs()[0]
	best := -1
	for _, id := range db.ShardIDs() {
		if l := db.Cluster().Shard(id).Store().Len(); l > best {
			best, victim = l, id
		}
	}
	fmt.Fprintf(w, "killing shard %d (holding %d keys)...\n", victim, best)
	t0 := time.Now()
	if err := db.KillShard(victim); err != nil {
		return fmt.Errorf("kill shard %d: %w", victim, err)
	}

	// SWAT reacts: ephemeral znode vanished -> leader promotes.
	for db.Cluster().Promotions.Load() == 0 {
		if time.Since(t0) > 10*time.Second {
			return errors.New("promotion never happened")
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Fprintf(w, "SWAT promoted a secondary in %v; new epoch %d\n",
		time.Since(t0).Round(time.Millisecond), db.Cluster().Epoch())

	// Every acknowledged write must survive. The client transparently
	// reroutes (stale-epoch responses / request timeouts trigger a routing
	// refresh) and its stale remote pointers fail validation and fall back.
	vals, err := c.MultiGet(keys)
	if err != nil {
		return fmt.Errorf("read back after failover: %w", err)
	}
	missing := 0
	for i, v := range vals {
		if string(v) != string(pairs[i].Val) {
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("%d acknowledged writes lost", missing)
	}
	fmt.Fprintf(w, "verified: all %d acknowledged writes survived the failover\n", n)

	// And the cluster keeps accepting writes.
	if err := c.Put([]byte("post-failover"), []byte("onward")); err != nil {
		return fmt.Errorf("post-failover put: %w", err)
	}
	fmt.Fprintln(w, "post-failover write accepted; reroutes used:",
		c.Counters().Snapshot().RoutingRetries)
	return nil
}
