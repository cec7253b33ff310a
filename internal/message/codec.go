// Package message defines HydraDB's wire formats: the request/response
// codecs exchanged between clients and shards, and the indicator-
// encapsulated mailbox protocol used to pass them over one-sided RDMA Writes
// with sustained polling (paper §4.2.1).
package message

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hydradb/internal/kv"
)

// Op identifies a request type.
type Op uint8

// Request operations. The server handles all writes (§4.2): INSERT/UPDATE
// arrive as OpPut, and OpGet is the server-aware GET that returns a remote
// pointer + lease enabling later RDMA Reads.
const (
	OpGet Op = iota + 1
	OpPut
	OpDelete
	OpRenewLease
)

// String names the op for diagnostics.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDelete:
		return "DELETE"
	case OpRenewLease:
		return "RENEW"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Status reports the outcome of a request.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota + 1
	StatusNotFound
	StatusWrongShard // routing epoch stale: client must refresh and retry
	StatusError
)

// ErrMalformed reports an undecodable message.
var ErrMalformed = errors.New("message: malformed")

// Request is a client-to-shard message.
type Request struct {
	Op    Op
	Seq   uint32
	Epoch uint32 // routing epoch the client used; shard rejects stale epochs
	Key   []byte
	Val   []byte
}

const reqHeader = 1 + 1 + 4 + 4 + 2 + 4 // op, pad, seq, epoch, keyLen, valLen

// EncodedSize reports the wire size of the request.
func (r *Request) EncodedSize() int { return reqHeader + len(r.Key) + len(r.Val) }

// EncodeTo writes the request into buf, returning bytes written.
// buf must hold EncodedSize() bytes.
func (r *Request) EncodeTo(buf []byte) int {
	buf[0] = byte(r.Op)
	buf[1] = 0
	binary.LittleEndian.PutUint32(buf[2:6], r.Seq)
	binary.LittleEndian.PutUint32(buf[6:10], r.Epoch)
	binary.LittleEndian.PutUint16(buf[10:12], uint16(len(r.Key)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(r.Val)))
	n := copy(buf[reqHeader:], r.Key)
	copy(buf[reqHeader+n:], r.Val)
	return r.EncodedSize()
}

// DecodeRequest parses buf. Key and Val alias buf.
func DecodeRequest(buf []byte) (Request, error) {
	if len(buf) < reqHeader {
		return Request{}, ErrMalformed
	}
	r := Request{
		Op:    Op(buf[0]),
		Seq:   binary.LittleEndian.Uint32(buf[2:6]),
		Epoch: binary.LittleEndian.Uint32(buf[6:10]),
	}
	keyLen := int(binary.LittleEndian.Uint16(buf[10:12]))
	valLen := int(binary.LittleEndian.Uint32(buf[12:16]))
	if reqHeader+keyLen+valLen > len(buf) || r.Op < OpGet || r.Op > OpRenewLease {
		return Request{}, ErrMalformed
	}
	r.Key = buf[reqHeader : reqHeader+keyLen]
	r.Val = buf[reqHeader+keyLen : reqHeader+keyLen+valLen]
	return r, nil
}

// SeqOf reads the seq of an encoded request or response: both headers carry
// it at bytes [2,6). A body too short to hold it yields 0. The two-sided
// transport has no indicator word, so this is where its seq comes from.
//
// hydralint:hotpath
func SeqOf(body []byte) uint32 {
	if len(body) < 6 {
		return 0
	}
	return binary.LittleEndian.Uint32(body[2:6])
}

// Response is a shard-to-client message.
type Response struct {
	Status   Status
	Existed  bool // for PUT: true when an existing key was updated
	Seq      uint32
	Epoch    uint32 // shard's current routing epoch (lets clients refresh)
	LeaseExp int64
	Ptr      kv.RemotePtr
	Val      []byte
}

const respHeader = 1 + 1 + 4 + 4 + 8 + 16 + 4 // status, flags, seq, epoch, lease, ptr, valLen

// EncodedSize reports the wire size of the response.
func (r *Response) EncodedSize() int { return respHeader + len(r.Val) }

// EncodeTo writes the response into buf, returning bytes written.
func (r *Response) EncodeTo(buf []byte) int {
	buf[0] = byte(r.Status)
	flags := byte(0)
	if r.Existed {
		flags |= 1
	}
	buf[1] = flags
	binary.LittleEndian.PutUint32(buf[2:6], r.Seq)
	binary.LittleEndian.PutUint32(buf[6:10], r.Epoch)
	binary.LittleEndian.PutUint64(buf[10:18], uint64(r.LeaseExp))
	binary.LittleEndian.PutUint32(buf[18:22], r.Ptr.ShardID)
	binary.LittleEndian.PutUint32(buf[22:26], r.Ptr.DataOff)
	binary.LittleEndian.PutUint32(buf[26:30], r.Ptr.DataLen)
	binary.LittleEndian.PutUint32(buf[30:34], r.Ptr.MetaIdx)
	binary.LittleEndian.PutUint32(buf[34:38], uint32(len(r.Val)))
	copy(buf[respHeader:], r.Val)
	return r.EncodedSize()
}

// DecodeResponse parses buf. Val aliases buf.
func DecodeResponse(buf []byte) (Response, error) {
	if len(buf) < respHeader {
		return Response{}, ErrMalformed
	}
	r := Response{
		Status:   Status(buf[0]),
		Existed:  buf[1]&1 != 0,
		Seq:      binary.LittleEndian.Uint32(buf[2:6]),
		Epoch:    binary.LittleEndian.Uint32(buf[6:10]),
		LeaseExp: int64(binary.LittleEndian.Uint64(buf[10:18])),
		Ptr: kv.RemotePtr{
			ShardID: binary.LittleEndian.Uint32(buf[18:22]),
			DataOff: binary.LittleEndian.Uint32(buf[22:26]),
			DataLen: binary.LittleEndian.Uint32(buf[26:30]),
			MetaIdx: binary.LittleEndian.Uint32(buf[30:34]),
		},
	}
	valLen := int(binary.LittleEndian.Uint32(buf[34:38]))
	if respHeader+valLen > len(buf) || r.Status < StatusOK || r.Status > StatusError {
		return Response{}, ErrMalformed
	}
	r.Val = buf[respHeader : respHeader+valLen]
	return r, nil
}
