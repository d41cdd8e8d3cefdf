// Package conduit implements the paper's §3.2: vchan shared-memory
// rings between domains, plus the Plan9-like rendezvous layer that lets
// a VM connect to a *named* endpoint ("http_server") through the
// /conduit XenStore tree without knowing where the peer runs.
//
// Data travels through grant-mapped ring buffers synchronised by event
// channels — after rendezvous, XenStore is out of the picture, exactly
// as §3.2.3 requires: "established channels are zero-copy shared memory
// endpoints that no longer require any interaction with XenStore".
package conduit

import (
	"encoding/binary"

	"jitsu/internal/xen"
)

// Ring layout inside one grant page:
//
//	[0:4)   producer counter (total bytes ever written, mod 2^32)
//	[4:8)   consumer counter (total bytes ever read)
//	[8:16)  reserved
//	[16:)   data region
const (
	ringHdr  = 16
	RingSize = xen.PageSize - ringHdr
)

// ring is one unidirectional byte ring over a shared page. Producer and
// consumer each hold a *ring over the same *xen.Page — that aliasing IS
// the shared memory.
type ring struct {
	page *xen.Page
}

func (r *ring) prod() uint32     { return binary.LittleEndian.Uint32(r.page.Data[0:4]) }
func (r *ring) cons() uint32     { return binary.LittleEndian.Uint32(r.page.Data[4:8]) }
func (r *ring) setProd(v uint32) { binary.LittleEndian.PutUint32(r.page.Data[0:4], v) }
func (r *ring) setCons(v uint32) { binary.LittleEndian.PutUint32(r.page.Data[4:8], v) }

// closedFlag occupies one reserved byte: the producer sets it to signal
// end-of-stream to the consumer.
func (r *ring) closedFlag() bool { return r.page.Data[8] == 1 }
func (r *ring) setClosedFlag()   { r.page.Data[8] = 1 }

// free returns writable space.
func (r *ring) free() int { return RingSize - int(r.prod()-r.cons()) }

// used returns readable bytes.
func (r *ring) used() int { return int(r.prod() - r.cons()) }

// write copies as much of data as fits and returns the count.
func (r *ring) write(data []byte) int {
	n := r.free()
	if n > len(data) {
		n = len(data)
	}
	w := r.prod()
	for i := 0; i < n; i++ {
		r.page.Data[ringHdr+int(w+uint32(i))%RingSize] = data[i]
	}
	r.setProd(w + uint32(n))
	return n
}

// read drains up to max bytes (all, if max < 0).
func (r *ring) read(max int) []byte {
	n := r.used()
	if max >= 0 && n > max {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	c := r.cons()
	for i := 0; i < n; i++ {
		out[i] = r.page.Data[ringHdr+int(c+uint32(i))%RingSize]
	}
	r.setCons(c + uint32(n))
	return out
}
