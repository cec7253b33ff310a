// Package client implements the HydraDB client library (paper §4):
// consistent-hash routing, RDMA-Write message passing with response polling,
// remote-pointer caching with RDMA-Read GETs, stale-read detection via the
// guardian word, lease tracking and renewal, and optional pointer sharing
// among collocated clients (§4.2.2–§4.2.4). The pointer cache (PtrCache)
// keeps tag, remote pointer and lease inline in 32 B seqlock slots, two to
// a cache line, so a hit loads one line; it is bounded and drops in O(1) on
// an epoch change.
package client

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"hydradb/internal/consistent"
	"hydradb/internal/kv"
	"hydradb/internal/lease"
	"hydradb/internal/message"
	"hydradb/internal/shard"
	"hydradb/internal/stats"
	"hydradb/internal/timing"
)

// Errors surfaced to applications.
var (
	ErrNotFound = errors.New("hydradb: key not found")
	ErrUnrouted = errors.New("hydradb: no shard owns this key")
	ErrRemote   = errors.New("hydradb: server error")
	ErrRetries  = errors.New("hydradb: routing retries exhausted")
	// ErrMaybeApplied reports a write whose request was delivered but whose
	// response never arrived (AtMostOnceWrites mode): the mutation may or
	// may not have executed, and the caller owns the ambiguity.
	ErrMaybeApplied = errors.New("hydradb: write may or may not have been applied")
)

// RouteTable snapshots the cluster topology under one epoch.
type RouteTable struct {
	Epoch     uint32
	Ring      *consistent.Ring
	Endpoints map[uint32]*shard.Endpoint
}

// Options tune a client.
type Options struct {
	// Clock is required (shared with the cluster for lease arithmetic).
	Clock timing.Clock
	// Cache holds remote pointers; nil selects a private cache.
	Cache *PtrCache
	// UseRDMARead enables the one-sided GET path (§4.2.2); disabled it
	// degenerates to pure message passing ("RDMA Write Only", Fig. 10).
	UseRDMARead bool
	// Refresh is called on StatusWrongShard to obtain a newer RouteTable;
	// nil disables rerouting.
	Refresh func() *RouteTable
	// MaxRetries bounds rerouting attempts.
	MaxRetries int
	// RequestTimeout bounds the wall-clock wait for a response; on expiry the
	// client refreshes its routing table and retries (the shard may have
	// failed and been promoted elsewhere). Zero selects 2 s. It is measured
	// on timing.Wall(), not Clock: lease arithmetic must follow the (possibly
	// virtual) data-plane clock, while failure detection must keep moving
	// even when that clock is a stalled ManualClock.
	RequestTimeout time.Duration
	// AtMostOnceWrites makes a timed-out Put/Delete return ErrMaybeApplied
	// instead of transparently retrying. The default (false) retries after a
	// routing refresh, which is at-LEAST-once: the first attempt's request
	// may have executed with only its response lost, so a retry can apply
	// the same mutation twice — observable as a resurrected value when
	// other writes landed in between. Reads always retry (idempotent).
	// History-checking harnesses set this so every recorded operation
	// executes at most once and timeouts surface as "maybe applied".
	AtMostOnceWrites bool
	// Counters, when non-nil, receives operation accounting (shared across
	// clients when aggregating a machine).
	Counters *stats.OpCounters
}

// readMarginNs is the lease safety margin for RDMA Reads: clock skew
// between client and shard that a one-sided read must tolerate.
const readMarginNs = 10e6

// Client is a HydraDB client instance. A client issues synchronous requests
// and is not safe for concurrent use — run one per goroutine, exactly like
// the paper's client processes; clients may share a pointer cache and
// counters.
type Client struct {
	opts   Options
	table  *RouteTable
	cache  *PtrCache
	clock  timing.Clock
	wall   timing.Clock
	ctr    *stats.OpCounters
	seq    uint32
	reqBuf []byte
	rdBuf  []byte

	// Scratch state reused across calls so steady-state paths stay
	// allocation-free: the word buffer for one-sided reads, the engine's
	// scratch — one for single ops, one for batches, so a Get, Put, Delete
	// or Renew leaves the last batch's Results intact — and renewal pass
	// slices.
	wordBuf     [2]uint64
	single      singleScratch
	pipe        pipeScratch
	renewKeys   []string
	renewKeyBuf []byte
}

// New creates a client over the given routing snapshot.
func New(table *RouteTable, opts Options) *Client {
	if opts.Clock == nil {
		panic("client: Options.Clock required")
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 8
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 2 * time.Second
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewCache()
	}
	ctr := opts.Counters
	if ctr == nil {
		ctr = &stats.OpCounters{}
	}
	c := &Client{
		opts:  opts,
		table: table,
		cache: cache,
		clock: opts.Clock,
		wall:  timing.Wall(),
		ctr:   ctr,
		rdBuf: make([]byte, 64<<10),
	}
	c.single.init()
	return c
}

// Counters exposes the client's accounting.
func (c *Client) Counters() *stats.OpCounters { return c.ctr }

// Cache exposes the pointer cache (hit analysis, Fig. 11).
func (c *Client) Cache() *PtrCache { return c.cache }

// Table reports the current routing snapshot.
func (c *Client) Table() *RouteTable { return c.table }

// SetTable installs a new routing snapshot (epoch change).
func (c *Client) SetTable(t *RouteTable) { c.table = t }

// endpointFor routes key to its shard's connection. A key longer than the
// request header's 16-bit length field can carry is refused here, before
// any request is encoded, so no truncated key is ever sent.
func (c *Client) endpointFor(key []byte) (*shard.Endpoint, error) {
	if len(key) > kv.MaxKeyLen {
		return nil, kv.ErrKeyTooLarge
	}
	sid := c.table.Ring.OwnerOfKey(key)
	ep, ok := c.table.Endpoints[sid]
	if !ok {
		return nil, ErrUnrouted
	}
	return ep, nil
}

// mutates reports whether op changes server state (the ops AtMostOnceWrites
// refuses to blind-retry).
func mutates(op message.Op) bool {
	return op == message.OpPut || op == message.OpDelete
}

// refreshTable installs a fresh routing table. When the refresh reveals a
// new routing epoch, every cached pointer was minted under superseded
// placement (§5.1: promotion and migration bump the epoch), so the pointer
// cache is dropped wholesale — offsets into a reshuffled arena must not be
// revalidated item by item.
func (c *Client) refreshTable() {
	old := c.table
	c.table = c.opts.Refresh()
	if c.table.Epoch != old.Epoch {
		c.cache.Reset()
	}
}

// cachePointer installs/overwrites the pointer for key. It allocates only
// on the key's first insert.
func (c *Client) cachePointer(key []byte, ptr kv.RemotePtr, leaseExp int64) {
	c.cache.Put(key, PtrEntry{Ptr: ptr, LeaseExp: leaseExp})
}

// Get returns the value for key. Previously accessed keys with a valid
// lease are fetched with a single one-sided RDMA Read that bypasses the
// shard CPU entirely; the guardian word and embedded key validate the fetch,
// falling back to a message GET on any staleness (§4.2.2, §4.2.3).
func (c *Client) Get(key []byte) ([]byte, error) {
	return c.GetInto(key, nil)
}

// GetInto is Get with caller-controlled value memory: the value is appended
// to dst and the grown slice returned, so steady-state readers can reuse one
// buffer and pay zero allocations per one-sided GET. A nil dst allocates a
// fresh value exactly like Get. Not-found returns (dst, ErrNotFound).
func (c *Client) GetInto(key, dst []byte) ([]byte, error) {
	if out, ok := c.readCached(key, dst); ok {
		return out, nil
	}
	return c.do(message.OpGet, key, nil, dst)
}

// readCached tries the one-sided GET of key (§4.2.2), appending the value
// to dst. It counts the GET and exactly one of a hit, a stale pointer and a
// miss, so Gets == RDMAReadHits + RDMAReadStale + PointerMisses; ok=false
// leaves the GET to the message path.
func (c *Client) readCached(key, dst []byte) ([]byte, bool) {
	c.ctr.Gets.Inc()
	if !c.opts.UseRDMARead {
		c.ctr.PointerMisses.Inc()
		return dst, false
	}
	ref, e, ok := c.cache.lookup(key)
	if !ok {
		c.ctr.PointerMisses.Inc()
		return dst, false
	}
	out, ok, err := c.readViaPointerInto(key, ref, e, dst)
	if err == nil && ok {
		c.ctr.RDMAReadHits.Inc()
		ref.touch()
		return out, true
	}
	// Invalid hit: outdated item observed — drop the pointer and let the
	// message GET fetch the latest version (§4.2.3).
	c.ctr.RDMAReadStale.Inc()
	ref.drop()
	return dst, false
}

// readViaPointerInto attempts the one-sided fetch of e, the entry ref hit,
// appending the value to dst; ok=false flags a stale or lease-expired
// pointer. It reuses the client's read scratch and word buffer so a hit
// performs no allocations.
func (c *Client) readViaPointerInto(key []byte, ref slotRef, e PtrEntry, dst []byte) ([]byte, bool, error) {
	now := c.clock.Now()
	if !lease.ValidForRead(e.LeaseExp, now, readMarginNs) {
		return dst, false, nil
	}
	ep, ok := c.table.Endpoints[e.Ptr.ShardID]
	if !ok {
		return dst, false, nil
	}
	buf := c.readBuf(int(e.Ptr.DataLen))
	// One RDMA Read fetches payload + guardian + lease (§4.2.3).
	_, err := ep.QP.ReadInto(ep.ArenaMR, int(e.Ptr.DataOff), buf, c.wordBuf[:],
		int(e.Ptr.MetaIdx), int(e.Ptr.MetaIdx)+1)
	if err != nil {
		return dst, false, err
	}
	if c.wordBuf[0] != kv.GuardianLive {
		return dst, false, nil // guardian flipped: outdated
	}
	gotKey, gotVal, okDec := kv.DecodeItem(buf)
	if !okDec || !bytes.Equal(gotKey, key) {
		// Recycled area republished for another key: treat as stale.
		return dst, false, nil
	}
	// Refresh the lease view fetched with the item.
	if exp := int64(c.wordBuf[1]); exp > e.LeaseExp {
		ref.refresh(PtrEntry{Ptr: e.Ptr, LeaseExp: exp})
	}
	dst = append(dst, gotVal...)
	return dst, true, nil
}

// readBuf returns the read scratch sized for n bytes, growing it as needed.
func (c *Client) readBuf(n int) []byte {
	if cap(c.rdBuf) < n {
		c.rdBuf = make([]byte, n)
	}
	return c.rdBuf[:n]
}

// Put inserts or updates key. The returned pointer is cached so subsequent
// GETs can go one-sided immediately.
func (c *Client) Put(key, val []byte) error {
	_, err := c.do(message.OpPut, key, val, nil)
	return err
}

// Delete removes key.
func (c *Client) Delete(key []byte) error {
	_, err := c.do(message.OpDelete, key, nil, nil)
	return err
}

// Renew extends the lease of key on the server (periodic renewal of popular
// keys, §4.2.3). The server renews the key's current item and names it in
// the response; that pointer and its lease are cached. A cached pointer
// the response does not name may be an
// older, detached version, whose lease the renewal did not extend.
func (c *Client) Renew(key []byte) error {
	_, err := c.do(message.OpRenewLease, key, nil, nil)
	return err
}

// RenewPopular renews, as one pipelined batch, every cached key whose
// client-side access count is at least minAccess and whose lease expires
// within windowNs — the paper's periodic renewal pass. The same pass evicts
// every other pointer whose lease is already too short for a one-sided
// read: such a pointer can only cost a stale read. Like Pipeline it reuses
// the batch scratch. Returns the number of keys renewed.
func (c *Client) RenewPopular(minAccess uint32, windowNs int64) int {
	now := c.clock.Now()
	keys := c.renewKeys[:0]
	c.cache.Range(func(key string, e PtrEntry, access uint32) bool {
		switch {
		case access >= minAccess && e.LeaseExp-now < windowNs:
			keys = append(keys, key)
		case !lease.ValidForRead(e.LeaseExp, now, readMarginNs):
			c.renewKeyBuf = append(c.renewKeyBuf[:0], key...)
			c.cache.Delete(c.renewKeyBuf)
		}
		return true
	})
	// One scratch buffer holds every key of the batch; the ops slice it only
	// after it has stopped growing.
	buf := c.renewKeyBuf[:0]
	for _, k := range keys {
		buf = append(buf, k...)
	}
	c.renewKeyBuf = buf
	ops := c.pipe.ops[:0]
	for _, k := range keys {
		ops = append(ops, Op{Code: message.OpRenewLease, Key: buf[:len(k):len(k)]})
		buf = buf[len(k):]
	}
	c.pipe.ops = ops
	n := 0
	for _, r := range c.Pipeline(ops) {
		if r.Err == nil {
			n++
		}
	}
	// Keep the grown backing for the next pass, but release the key strings.
	clear(keys)
	c.renewKeys = keys[:0]
	return n
}

// String identifies the client by its routing epoch.
func (c *Client) String() string {
	return fmt.Sprintf("client{epoch=%d shards=%d}", c.table.Epoch, c.table.Ring.Size())
}
