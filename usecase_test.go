// Tests of the paper's §2 use-case access patterns against a live
// deployment: large chunk-sized values (§2.1's MapReduce input cache) and
// concurrent read-modify-write chains (§2.2's G2 entity resolution).
package hydradb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hydradb"
	"hydradb/internal/client"
	"hydradb/internal/history"
)

// TestLargeValuesReadBack stores chunk-sized values in a deployment whose
// mailboxes are raised above the default, reads each back byte-equal over
// the message path, and re-reads them one-sided through the pointers the
// first read cached.
func TestLargeValuesReadBack(t *testing.T) {
	opts := hydradb.DefaultOptions()
	opts.ShardsPerMachine = 2
	opts.ArenaBytesPerShard = 16 << 20
	opts.MaxItemsPerShard = 4096
	opts.MailboxBytes = 128 << 10
	opts.SharedPointerCache = false // the reader must not see the writer's pointers
	db, err := hydradb.Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(7))
	vals := make(map[string][]byte)
	writer := db.NewClient()
	for i, size := range []int{16 << 10, 16 << 10, 60 << 10, 60<<10 - 17} {
		v := make([]byte, size)
		rng.Read(v)
		k := fmt.Sprintf("chunk-%02d", i)
		if err := writer.Put([]byte(k), v); err != nil {
			t.Fatalf("put %s (%d B): %v", k, size, err)
		}
		vals[k] = v
	}

	reader := db.NewClient()
	readAll := func(pass string) {
		for k, want := range vals {
			got, err := reader.Get([]byte(k))
			if err != nil {
				t.Fatalf("%s get %s: %v", pass, k, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s get %s: %d bytes differ from the %d written", pass, k, len(got), len(want))
			}
		}
	}
	readAll("message-path")
	first := reader.Counters().Snapshot()
	if first.PointerMisses != int64(len(vals)) || first.RDMAReadHits != 0 {
		t.Fatalf("first pass: %d message-path reads, %d one-sided; want %d and 0",
			first.PointerMisses, first.RDMAReadHits, len(vals))
	}
	readAll("one-sided")
	if hits := reader.Counters().Snapshot().RDMAReadHits; hits < int64(len(vals)) {
		t.Fatalf("re-read: %d one-sided hits, want >= %d", hits, len(vals))
	}
}

// TestReadModifyWriteChainsLinearize runs concurrent Get-then-Put chains
// over a small zipfian key set. Each Put derives its value from the Get
// before it and grows it to the next arena size class (24 B up to ~2 KB,
// then back), so every update moves the item and stales every cached
// pointer to it. Half the clients read one-sided; the recorded history
// must linearize per key.
func TestReadModifyWriteChainsLinearize(t *testing.T) {
	const (
		clients = 4
		rounds  = 600
		keys    = 16
		minLen  = 24
		maxLen  = 2048
	)
	opts := hydradb.DefaultOptions()
	opts.ShardsPerMachine = 2
	opts.ArenaBytesPerShard = 16 << 20
	opts.MaxItemsPerShard = 4096
	db, err := hydradb.Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// value renders generation gen of a chain written by client c, padded
	// to n bytes; next derives its successor from the value read.
	value := func(c, gen, n int) []byte {
		v := []byte(fmt.Sprintf("c%d g%d |", c, gen))
		return append(v, bytes.Repeat([]byte{byte('a' + gen%26)}, n-len(v))...)
	}
	next := func(c int, prev []byte) ([]byte, error) {
		_, rest, _ := strings.Cut(string(prev), " g")
		genStr, _, _ := strings.Cut(rest, " ")
		gen, err := strconv.Atoi(genStr)
		if err != nil {
			return nil, fmt.Errorf("value %.20q has no generation", prev)
		}
		n := len(prev) * 3 / 2
		if n > maxLen {
			n = minLen
		}
		return value(c, gen+1, n), nil
	}

	rec := history.NewRecorder()
	rcs := make([]*history.RecordingClient, clients)
	for i := range rcs {
		c := db.Cluster().NewClient(0, client.Options{Clock: db.Clock(), UseRDMARead: i%2 == 0})
		rcs[i] = &history.RecordingClient{C: c, R: rec, ID: i}
	}
	for k := 0; k < keys; k++ {
		if err := rcs[0].Put([]byte(fmt.Sprintf("entity-%02d", k)), value(0, 0, minLen)); err != nil {
			t.Fatal(err)
		}
	}

	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i, rc := range rcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(i+1))), 1.1, 1, keys-1)
			for r := 0; r < rounds; r++ {
				k := []byte(fmt.Sprintf("entity-%02d", zipf.Uint64()))
				prev, err := rc.Get(k)
				if err == nil {
					prev, err = next(i, prev)
				}
				if err == nil {
					err = rc.Put(k, prev)
				}
				if err != nil {
					errs <- fmt.Errorf("client %d round %d key %s: %w", i, r, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ops := rec.Ops()
	var oneSided int64
	for i, rc := range rcs {
		if i%2 == 0 {
			oneSided += rc.C.Counters().Snapshot().RDMAReadHits
		}
	}
	t.Logf("history: %d ops, %d one-sided reads", len(ops), oneSided)
	if len(ops) < 2*clients*rounds || oneSided < 200 {
		t.Fatalf("history: %d ops with %d one-sided reads, want >= %d and >= 200",
			len(ops), oneSided, 2*clients*rounds)
	}
	if v := history.Check(ops); v != nil {
		t.Fatalf("read-modify-write history does not linearize:\n%s", v)
	}
}
