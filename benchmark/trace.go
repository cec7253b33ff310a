package main

import (
	"bufio"
	"fmt"
	"os"

	"hydradb/internal/stats"
)

// Tracing is done entirely from outside the layers: a span is recorded by
// the harness around a call into a layer, kept in memory, and written out
// when the benchmark ends. Spans inside the program are a later change.

type spanName uint8

const (
	// Live pass: one span around each Client.GetInto / Client.Put, named by
	// the path the client's counters say it took.
	spanGetOneSided spanName = iota
	spanGetMessage
	spanGetStale
	spanPut
	// Stage table (stages.go): one span covers a batch of stageBatch calls.
	spanBatch
	spanOwner
	spanEncodeReq
	spanMailboxWrite
	spanWriteIndicated
	spanMailboxPoll
	spanDecodeReq
	spanKVGet
	spanTableLookup
	spanEncodeResp
	spanDecodeResp
	spanKVPutInsert
	spanTableInsert
	spanArenaAllocFree
	spanKVPutUpdate
	spanReplicate
	spanSecondaryPoll
	spanFlush
	spanLFMapGet
	spanReadInto
	spanDecodeItem
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanGetOneSided:    "client.get_onesided",
	spanGetMessage:     "client.get_message",
	spanGetStale:       "client.get_stale",
	spanPut:            "client.put",
	spanBatch:          "stage.batch",
	spanOwner:          "consistent.owner",
	spanEncodeReq:      "message.encode_req",
	spanMailboxWrite:   "message.mailbox_write",
	spanWriteIndicated: "rdma.write_indicated",
	spanMailboxPoll:    "message.mailbox_poll",
	spanDecodeReq:      "message.decode_req",
	spanKVGet:          "kv.get",
	spanTableLookup:    "hashtable.lookup",
	spanEncodeResp:     "message.encode_resp",
	spanDecodeResp:     "message.decode_resp",
	spanKVPutInsert:    "kv.put_insert",
	spanTableInsert:    "hashtable.insert",
	spanArenaAllocFree: "arena.alloc_free",
	spanKVPutUpdate:    "kv.put_update",
	spanReplicate:      "replication.replicate",
	spanSecondaryPoll:  "replication.secondary_poll",
	spanFlush:          "replication.flush",
	spanLFMapGet:       "lfmap.get",
	spanReadInto:       "rdma.read_into",
	spanDecodeItem:     "kv.decode_item",
}

// span is one timed interval: what ran, when, and the span that caused it
// (an index into the same slice, -1 for a root).
type span struct {
	name       spanName
	parent     int32
	start, end int64 // ns on now()
}

// getPath names the path a GET took from what it did to the client's
// counters: a hit served it one-sided, a stale read fell back to a message
// after a wasted one-sided attempt, anything else was a plain message GET.
func getPath(ctr *stats.OpCounters, hitsBefore, staleBefore int64) spanName {
	switch {
	case ctr.RDMAReadHits.Load() != hitsBefore:
		return spanGetOneSided
	case ctr.RDMAReadStale.Load() != staleBefore:
		return spanGetStale
	default:
		return spanGetMessage
	}
}

// selfTimes returns, per span, its duration minus the time its direct
// children account for, never below zero. The stage table cannot open a span
// inside a layer's function, so a child there is the inner call replayed on
// the same inputs right after its parent rather than a sub-interval of it;
// either way the child's time is time the parent did not spend itself.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// byName groups per-span values (durations or self times) by span name.
func byName(spans []span, values []int64) [numSpanNames][]int32 {
	var out [numSpanNames][]int32
	for i, s := range spans {
		out[s.name] = append(out[s.name], ns32(values[i]))
	}
	return out
}

func durations(spans []span) []int64 {
	d := make([]int64, len(spans))
	for i, s := range spans {
		d[i] = s.end - s.start
	}
	return d
}

// dumpSpans writes spans as JSON lines. id is the index in the dump; parent
// refers to it.
func dumpSpans(path string, groups ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	base := 0
	for _, spans := range groups {
		for i, s := range spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n",
				base+i, spanNames[s.name], s.start, s.end, parent)
		}
		base += len(spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
