package hydradb

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hydradb/internal/kv"
	"hydradb/internal/timing"
)

func TestStartDefaults(t *testing.T) {
	db, err := Start(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := len(db.ShardIDs()); got != 4 {
		t.Fatalf("shards = %d", got)
	}
	c := db.NewClient()
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("get: %q %v", v, err)
	}
	if _, err := c.Get([]byte("absent")); err != ErrNotFound {
		t.Fatalf("absent: %v", err)
	}
	if db.Stats().Gets == 0 {
		t.Fatal("stats empty")
	}
}

func TestReplicasRequireMachines(t *testing.T) {
	// A secondary must never share a machine with its primary: every
	// topology with Replicas >= ServerMachines is rejected.
	for _, tc := range []struct{ machines, replicas int }{{1, 1}, {2, 2}, {2, 3}} {
		opts := DefaultOptions()
		opts.ServerMachines = tc.machines
		opts.Replicas = tc.replicas
		if db, err := Start(opts); err == nil {
			db.Close()
			t.Fatalf("%d machines x %d replicas accepted", tc.machines, tc.replicas)
		}
	}
}

func TestEndToEndFailover(t *testing.T) {
	opts := DefaultOptions()
	opts.ServerMachines = 2
	opts.ShardsPerMachine = 2
	opts.Replicas = 1
	opts.ArenaBytesPerShard = 2 << 20
	opts.MaxItemsPerShard = 8192
	db, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	c := db.NewClient()
	const n = 150
	for i := 0; i < n; i++ {
		if err := c.Put([]byte(fmt.Sprintf("user%08d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.KillShard(db.ShardIDs()[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for db.Cluster().Promotions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no promotion")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("user%08d", i))
		if v, err := c.Get(k); err != nil || string(v) != "v" {
			t.Fatalf("get %s: %q %v", k, v, err)
		}
	}
}

func TestModesSmoke(t *testing.T) {
	for _, mode := range []struct {
		name string
		mod  func(*Options)
	}{
		{"send-recv", func(o *Options) { o.SendRecv = true }},
		{"no-rdma-read", func(o *Options) { o.DisableRDMARead = true }},
		{"pipelined", func(o *Options) { o.Pipelined = true }},
		{"send-recv+pipelined", func(o *Options) { o.SendRecv, o.Pipelined = true, true }},
		{"private-cache", func(o *Options) { o.SharedPointerCache = false }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.ShardsPerMachine = 2
			opts.ArenaBytesPerShard = 1 << 20
			opts.MaxItemsPerShard = 4096
			opts.Clock = timing.NewManualClock(1e9)
			mode.mod(&opts)
			db, err := Start(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			c := db.NewClient()
			for i := 0; i < 30; i++ {
				k := []byte(fmt.Sprintf("k%02d", i))
				if err := c.Put(k, []byte("v")); err != nil {
					t.Fatal(err)
				}
				if v, err := c.Get(k); err != nil || string(v) != "v" {
					t.Fatalf("get: %q %v", v, err)
				}
			}
		})
	}
}

// TestKeyTooLarge: a key past kv.MaxKeyLen would wrap the request header's
// 16-bit key length — to 0 for a 65536-byte key, to 1 for a 65537-byte one,
// which the shard would store as key "z" with the key's second byte as its
// value. With mailboxes large enough to carry such keys, the client must
// refuse them before encoding, synchronously and batched alike.
func TestKeyTooLarge(t *testing.T) {
	opts := DefaultOptions()
	opts.ShardsPerMachine = 1
	opts.ArenaBytesPerShard = 1 << 20
	opts.MaxItemsPerShard = 4096
	opts.MailboxBytes = 256 << 10
	opts.Clock = timing.NewManualClock(1e9)
	db, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.NewClient()
	for _, n := range []int{kv.MaxKeyLen + 1, kv.MaxKeyLen + 2} {
		key := append([]byte("z"), bytes.Repeat([]byte("a"), n-1)...)
		if err := c.Put(key, []byte("v")); err != kv.ErrKeyTooLarge {
			t.Fatalf("%d-byte key: Put: %v, want ErrKeyTooLarge", n, err)
		}
		if _, err := c.Get(key); err != kv.ErrKeyTooLarge {
			t.Fatalf("%d-byte key: Get: %v, want ErrKeyTooLarge", n, err)
		}
		if err := c.MultiPut([]KV{{Key: []byte("ok"), Val: []byte("v")}, {Key: key, Val: []byte("v")}}); err != kv.ErrKeyTooLarge {
			t.Fatalf("%d-byte key: MultiPut: %v, want ErrKeyTooLarge", n, err)
		}
		if _, err := c.MultiGet([][]byte{key}); err != kv.ErrKeyTooLarge {
			t.Fatalf("%d-byte key: MultiGet: %v, want ErrKeyTooLarge", n, err)
		}
	}
	// Nothing truncated landed, and the batch neighbour did.
	if _, err := c.Get([]byte("z")); err != ErrNotFound {
		t.Fatalf("Get of the truncated key: %v, want ErrNotFound", err)
	}
	if v, err := c.Get([]byte("ok")); err != nil || string(v) != "v" {
		t.Fatalf("batch neighbour: %q %v", v, err)
	}
}

func TestSharedCacheAcrossDBClients(t *testing.T) {
	opts := DefaultOptions()
	opts.ShardsPerMachine = 1
	opts.ArenaBytesPerShard = 1 << 20
	opts.MaxItemsPerShard = 4096
	db, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a := db.NewClientOn(0)
	b := db.NewClientOn(0)
	a.Put([]byte("hot"), []byte("v"))
	if _, err := b.Get([]byte("hot")); err != nil {
		t.Fatal(err)
	}
	if b.Counters().Snapshot().RDMAReadHits != 1 {
		t.Fatal("shared cache not wired through the public API")
	}
}

func TestPublicRenewer(t *testing.T) {
	opts := DefaultOptions()
	opts.ShardsPerMachine = 1
	opts.ArenaBytesPerShard = 1 << 20
	opts.MaxItemsPerShard = 4096
	db, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.NewClientOn(0)
	c.Put([]byte("hot"), []byte("v"))
	for i := 0; i < 10; i++ {
		c.Get([]byte("hot"))
	}
	r := db.NewRenewer(0, 10*time.Millisecond, 64*time.Second, 2)
	if n := r.ScanOnce(); n != 1 {
		t.Fatalf("renewed %d, want 1", n)
	}
	r.Start()
	defer r.Stop()
}
