// Quickstart: start an in-process HydraDB cluster, do basic KV operations,
// and watch the RDMA-Read fast path take over on repeat GETs.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"hydradb"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A single "server machine" with 4 single-threaded shards — the paper's
	// default deployment unit (§6).
	db, err := hydradb.Start(hydradb.DefaultOptions())
	if err != nil {
		return fmt.Errorf("start: %w", err)
	}
	defer db.Close()
	fmt.Fprintln(w, "started:", db)

	c := db.NewClient()

	// Writes are handled by the owning shard: the request travels as an
	// indicator-encapsulated message in a single one-sided RDMA Write and
	// the shard's polling thread picks it up (§4.2.1).
	if err := c.Put([]byte("greeting"), []byte("hello, RDMA world")); err != nil {
		return fmt.Errorf("put: %w", err)
	}

	// The PUT response carried a remote pointer + lease; this GET fetches
	// the item with a single one-sided RDMA Read — zero server CPU (§4.2.2).
	v, err := c.Get([]byte("greeting"))
	if err != nil {
		return fmt.Errorf("get: %w", err)
	}
	fmt.Fprintf(w, "get: %q\n", v)

	for i := 0; i < 1000; i++ {
		if _, err := c.Get([]byte("greeting")); err != nil {
			return fmt.Errorf("repeat get %d: %w", i, err)
		}
	}
	snap := c.Counters().Snapshot()
	fmt.Fprintf(w, "client counters: one-sided hits=%d invalid=%d message-path=%d\n",
		snap.RDMAReadHits, snap.RDMAReadStale, snap.PointerMisses)

	// An update is out-of-place: the old area's guardian word flips, so any
	// client holding the old pointer detects staleness and re-fetches.
	if err := c.Put([]byte("greeting"), []byte("updated value")); err != nil {
		return fmt.Errorf("update: %w", err)
	}
	if v, err = c.Get([]byte("greeting")); err != nil {
		return fmt.Errorf("get after update: %w", err)
	}
	fmt.Fprintf(w, "after update: %q\n", v)

	if err := c.Delete([]byte("greeting")); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	if _, err := c.Get([]byte("greeting")); !errors.Is(err, hydradb.ErrNotFound) {
		return fmt.Errorf("get after delete: %v, want ErrNotFound", err)
	}
	fmt.Fprintln(w, "deleted: key is gone")

	srv := db.Stats()
	fmt.Fprintf(w, "server counters: gets=%d inserts=%d updates=%d deletes=%d\n",
		srv.Gets, srv.Inserts, srv.Updates, srv.Deletes)
	fmt.Fprintln(w, "note: almost every read bypassed the server — that is the point.")
	return nil
}
