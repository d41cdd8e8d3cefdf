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
// is rendered into (TCPConn.Send copies it before returning) and an rx
// buffer consumed by offset, its tail moved to the front only when a
// frame is incomplete, so between deliveries rx holds at most one
// partial frame of at most MaxFrame bytes; either is released once
// empty if a frame grew it past 64 KiB. A server session holds at most
// 16 watches: a WatchReq on a new id beyond that is refused with
// CodeUnavailable. A Client decodes through its own Decoder, which
// bounds what a peer can make it hold: a declared count the remaining
// bytes could not carry fails the frame before anything is allocated for
// it, a stats frame's row arrays are sized from the session's last frame
// but never past what the remaining bytes could carry, and the table of
// recurring names stops at 4 096 entries. A server decodes a
// verb's request through its row as the type it is, and interns nothing.
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

// compact moves rx's unconsumed tail, rx[off:], to the front, so the
// buffer stops growing once it has held the session's largest frame.
func compact(rx []byte, off int) []byte {
	switch off {
	case len(rx):
		return keep(rx)
	case 0:
		return rx // a frame still arriving: nothing consumed, nothing to move
	}
	return rx[:copy(rx, rx[off:])]
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
