// Package wire is the control plane on the wire: a length-prefixed
// binary codec for every api.ControlPlane verb, plus a Server that
// binds the protocol to a netstack TCP endpoint and a Client that
// implements api.ControlPlane over a connection. Together
// they let remote operator processes drive a board or a whole cluster
// across the simulated management network — the same verbs, the same
// typed error codes, but now subject to the link's latency, loss and
// partitions like any other traffic.
//
// Layering: wire sits ABOVE api (it serializes api's request/response
// types and delegates to an api.ControlPlane backend) and above
// netstack (frames ride ordinary TCP connections). It knows nothing of
// cluster internals; internal/cc paces the bulk movers below this
// protocol and never appears on it.
//
// Frame layout (all integers big-endian):
//
//	offset  size  field
//	0       4     length of the remainder (ver..body), <= MaxFrame
//	4       1     protocol version (Version)
//	5       1     frame type
//	6       4     request id (echoed on responses and events)
//	10      n     body (frame-type specific)
//
// A frame whose header carries any version but Version is a protocol
// violation that drops the connection. A connection opens with
// Hello/HelloAck: the client offers a version range, which must include
// Version, and a capability token the server validates against its
// keyring, mapping the session to an api.Scope (no token: the server's
// anonymous-session policy decides). HelloAck carries Version and the
// granted scope, or version 0 — with a typed api.Error,
// CodeUnauthorized, for a refused credential — and the server closes.
//
// Request/response types pair by offset: request type t gets response
// type t+0x20. A verb outside the session's scope is answered with
// its ordinary response frame carrying api.CodeUnauthorized — the
// session itself stays up. Three extra frame kinds carry asynchrony:
// ReadyEvent (an OnReady callback firing remotely), DoneEvent (a
// Migrate OnDone), and StatsEvent (one WatchStats snapshot, tagged
// with the watch's request id); each connection has its own request-id
// space and its own subscription registry, so N operator sessions
// stream independently from one server and one session's teardown
// never disturbs its siblings.
//
// One table. Everything that differs from verb to verb — its name, the
// bodies of its two frames, the response that carries only an error,
// the call on the backend — is a row of verbs (verbs.go), indexed by
// request frame type and built from typed parts. A frame body is
// written once, as a walk over the message's fields through a buf that
// either appends them or fills them (codec.go), so a layout cannot
// disagree with itself. Append and Decode, the server's scope gate and
// dispatch and the client's call read the rows and name no verb; only
// the handshake, event and cancel frames have arms of their own. Adding
// a verb is two frame types, one row and a one-expression Client
// method.
//
// Buffers. Each end of a session owns a tx scratch every outgoing frame
// is rendered into (TCPConn.Send copies it before returning) and an
// inbound stream that decodes frames straight from the delivered
// segments, copying into its rx buffer only a frame still arriving, so
// between deliveries rx holds at most one partial frame of at most
// MaxFrame bytes; either buffer is released once empty if a frame grew
// it past 64 KiB. A server session snapshots its Stats verbs into one
// api.StatsBuf and holds at most 16 watches: a WatchReq on a new id
// beyond that is refused with CodeUnavailable. A Client decodes through
// its own Decoder, which bounds what a peer can make it hold: a declared
// count the remaining bytes could not carry fails the frame before
// anything is allocated for it, a stats frame's row arrays are sized
// from the session's last frame — or refilled, for a watch stream or a
// Stats verb given an Into buffer — but never grown past what the
// remaining bytes could carry, and the table of recurring names stops at
// 4 096 entries. A server decodes a verb's request through its row as
// the type it is, and interns nothing.
package wire

import "errors"

// Version is the protocol version every frame's header carries.
const Version = 2

// DefaultPort is the conventional management port wire servers bind.
const DefaultPort = 7900

// MaxFrame caps the length prefix: larger announcements are a protocol
// error, not a reason to buffer unboundedly.
const MaxFrame = 1 << 20

// headerLen is the fixed frame header: length + version + type + id.
const headerLen = 10

// maxScratch is the largest idle buffer a session holds on to: one that
// an outsized frame grew past it is released once empty.
const maxScratch = 64 << 10

// keep empties a session buffer for reuse, or releases it.
func keep(b []byte) []byte {
	if cap(b) > maxScratch {
		return nil
	}
	return b[:0]
}

// inbound is one end of a session's byte stream: the bytes not yet
// routed, in — a delivered segment's, or rx's — and rx, the copies of
// those that had to wait.
type inbound struct{ rx, in []byte }

// feed routes, in arrival order, every frame b completes: straight from
// b while nothing waits, copying only a trailing partial frame into rx,
// and from rx behind bytes that wait. A route may pump the engine and so
// re-enter feed: a frame is consumed before it is routed, the inner call
// queues what the outer one left ahead of its own bytes, and each pass
// reads in afresh. The first error ends the feed, dropping what is left.
func (f *inbound) feed(b []byte, route func(typ byte, id uint32, body []byte) error) error {
	if len(f.in) > 0 {
		f.rx = append(f.held(), b...)
		b = f.rx
	}
	f.in = b
	for {
		_, typ, id, body, n, err := split(f.in)
		if err == ErrShort {
			f.rx = f.held()
			f.in = f.rx
			return nil
		}
		if err == nil {
			f.in = f.in[n:]
			err = route(typ, id, body)
		}
		if err != nil {
			f.in = nil
			return err
		}
	}
}

// held returns rx holding exactly the bytes that wait, in, at its front:
// left in place when they already fill rx — a frame still arriving is
// never copied again — moved up when they trail it, and copied in from
// a segment otherwise. Only an rx nothing waits in is released.
func (f *inbound) held() []byte {
	switch {
	case len(f.in) == 0:
		return keep(f.rx)
	case len(f.in) > len(f.rx) || &f.in[len(f.in)-1] != &f.rx[len(f.rx)-1]:
		return append(keep(f.rx), f.in...) // a view of the segment
	case len(f.in) == len(f.rx):
		return f.rx
	}
	return f.rx[:copy(f.rx, f.in)]
}

// Frame types. Requests and responses pair by offset: the response to a
// request of type t has type t + 0x20.
const (
	THello    = 0x01
	THelloAck = 0x02

	TRegisterReq   = 0x10
	TActivateReq   = 0x11
	TCheckpointReq = 0x12
	TRestoreReq    = 0x13
	TMigrateReq    = 0x14
	TTransferReq   = 0x15
	TDemoteReq     = 0x16
	TPromoteReq    = 0x17
	TStopReq       = 0x18
	TStatsReq      = 0x19
	TWatchReq      = 0x1A
	TWatchCancel   = 0x1B

	TRegisterResp   = 0x30
	TActivateResp   = 0x31
	TCheckpointResp = 0x32
	TRestoreResp    = 0x33
	TMigrateResp    = 0x34
	TTransferResp   = 0x35
	TDemoteResp     = 0x36
	TPromoteResp    = 0x37
	TStopResp       = 0x38
	TStatsResp      = 0x39
	TWatchResp      = 0x3A

	TReadyEvent = 0x40
	TDoneEvent  = 0x41
	TStatsEvent = 0x42
)

// Codec errors. ErrShort is the resumable one — the buffer holds a
// frame prefix and the caller should wait for more bytes; everything
// else is a hard protocol violation that closes the connection.
var (
	ErrShort       = errors.New("wire: incomplete frame")
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	ErrBadVersion  = errors.New("wire: unsupported protocol version")
	ErrUnknownType = errors.New("wire: unknown frame type")
	ErrBadFrame    = errors.New("wire: malformed frame body")
	ErrNoVersion   = errors.New("wire: protocol version refused")
	ErrClosed      = errors.New("wire: connection closed")
)
