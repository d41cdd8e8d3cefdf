package netstack

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// TCB is a serialisable TCP control block: everything needed to hand a
// connection from the Synjitsu proxy to the freshly booted unikernel
// (§3.3.1, Figure 7). The paper stores these as s-expressions in the
// conduit XenStore tree; we keep the same surface syntax:
//
//	((state SYN_ACK)(src 10.0.0.9)(sport 49152)(dst 10.0.0.20)
//	 (dport 80)(iss 7)(irs 9)(snd-nxt 8)(rcv-nxt 10)(wnd 65535)(buf 474554))
type TCB struct {
	State      string // "SYN", "SYN_ACK" or "ESTABLISHED"
	LocalIP    IP
	LocalPort  uint16
	RemoteIP   IP
	RemotePort uint16
	ISS, IRS   uint32
	SndNxt     uint32
	RcvNxt     uint32
	Window     uint16
	// Buffered is client payload the proxy already ACKed; RcvNxt
	// accounts for it. The importer replays it to the application.
	Buffered []byte
}

// ErrBadTCB reports a malformed serialised control block.
var ErrBadTCB = errors.New("netstack: malformed TCB")

// TCB state strings (matching Figure 7's vocabulary).
const (
	TCBStateSYNACK      = "SYN_ACK"
	TCBStateEstablished = "ESTABLISHED"
)

// ExportTCB snapshots a proxy-side connection for handoff. Only
// half-open (SYN-ACK sent) and established connections are exportable.
func (c *TCPConn) ExportTCB() (*TCB, error) {
	var state string
	switch c.state {
	case StateSynRcvd:
		state = TCBStateSYNACK
	case StateEstablished:
		state = TCBStateEstablished
	default:
		return nil, fmt.Errorf("netstack: cannot export connection in %v", c.state)
	}
	t := &TCB{
		State:      state,
		LocalIP:    c.key.localIP,
		LocalPort:  c.key.localPort,
		RemoteIP:   c.key.remoteIP,
		RemotePort: c.key.remotePort,
		ISS:        c.iss,
		IRS:        c.irs,
		SndNxt:     c.sndNxt,
		RcvNxt:     c.rcvNxt,
		Window:     c.sndWnd,
	}
	// Anything the app side hasn't consumed plus anything pending is
	// the replay buffer. Proxy connections never take data, so all
	// received payload sits in pendingData.
	for _, b := range c.pendingData {
		t.Buffered = append(t.Buffered, b...)
	}
	return t, nil
}

// Forget removes a connection from its host's demux table *without*
// sending anything on the wire — the two-phase handoff's "the proxy
// stops claiming packets" step. After Forget the host ignores further
// segments for this tuple (and, having no socket, would RST them, so
// the importer must be live first — which the two-phase commit in
// XenStore guarantees).
func (c *TCPConn) Forget() {
	c.host.Eng.Cancel(c.rtxEv)
	c.state = StateClosed
	c.host.dropConn(c)
}

// ImportTCB reconstructs a connection in this stack from a snapshot.
// The local IP must match the stack's address (the unikernel owns the
// service IP the proxy was answering for). Buffered payload is queued
// for the application (Attach or OnData).
func (h *Host) ImportTCB(t *TCB) (*TCPConn, error) {
	if !h.HasIP(t.LocalIP) {
		return nil, fmt.Errorf("netstack: TCB local %v != stack %v", t.LocalIP, h.IP)
	}
	key := fourTuple{localIP: t.LocalIP, remoteIP: t.RemoteIP,
		localPort: t.LocalPort, remotePort: t.RemotePort}
	if _, exists := h.conns[key]; exists {
		return nil, fmt.Errorf("netstack: connection already exists for %v", key)
	}
	c := &TCPConn{
		host:   h,
		key:    key,
		iss:    t.ISS,
		irs:    t.IRS,
		sndUna: t.ISS, // SYN(-ACK) not yet acknowledged in SYN_ACK state
		sndNxt: t.SndNxt,
		rcvNxt: t.RcvNxt,
		sndWnd: t.Window,
		mss:    DefaultMSS,
	}
	switch t.State {
	case TCBStateSYNACK:
		c.state = StateSynRcvd
		c.armRtx()
	case TCBStateEstablished:
		c.state = StateEstablished
		c.sndUna = t.SndNxt
	default:
		return nil, fmt.Errorf("netstack: cannot import TCB state %q", t.State)
	}
	if len(t.Buffered) > 0 {
		c.pendingData = append(c.pendingData, append([]byte(nil), t.Buffered...))
	}
	h.addConn(c)
	return c, nil
}

// Encode renders the s-expression form stored in XenStore.
func (t *TCB) Encode() string {
	// Keys, brackets and every number at full width come to 167 bytes.
	b := make([]byte, 0, 168+len(t.State)+2*len(t.Buffered))
	b = append(b, "((state "...)
	b = append(b, t.State...)
	b = t.RemoteIP.appendTo(append(b, ")(src "...)) // "src" is the *client*, as in Fig 7
	b = strconv.AppendUint(append(b, ")(sport "...), uint64(t.RemotePort), 10)
	b = t.LocalIP.appendTo(append(b, ")(dst "...))
	b = strconv.AppendUint(append(b, ")(dport "...), uint64(t.LocalPort), 10)
	b = strconv.AppendUint(append(b, ")(iss "...), uint64(t.ISS), 10)
	b = strconv.AppendUint(append(b, ")(irs "...), uint64(t.IRS), 10)
	b = strconv.AppendUint(append(b, ")(snd-nxt "...), uint64(t.SndNxt), 10)
	b = strconv.AppendUint(append(b, ")(rcv-nxt "...), uint64(t.RcvNxt), 10)
	b = strconv.AppendUint(append(b, ")(wnd "...), uint64(t.Window), 10)
	if len(t.Buffered) > 0 {
		b = hex.AppendEncode(append(b, ")(buf "...), t.Buffered)
	}
	return string(append(b, "))"...))
}

// ParseTCB parses the s-expression form.
func ParseTCB(s string) (*TCB, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
		return nil, ErrBadTCB
	}
	inner := s[1 : len(s)-1]
	t := &TCB{}
	for len(inner) > 0 {
		inner = strings.TrimSpace(inner)
		if inner == "" {
			break
		}
		if inner[0] != '(' {
			return nil, ErrBadTCB
		}
		end := strings.IndexByte(inner, ')')
		if end < 0 {
			return nil, ErrBadTCB
		}
		// A pair is exactly two fields with white space between and around.
		pair := strings.TrimSpace(inner[1:end])
		inner = inner[end+1:]
		sep := strings.IndexFunc(pair, unicode.IsSpace)
		if sep < 0 {
			return nil, ErrBadTCB
		}
		k, v := pair[:sep], strings.TrimSpace(pair[sep:])
		if strings.IndexFunc(v, unicode.IsSpace) >= 0 {
			return nil, ErrBadTCB
		}
		switch k {
		case "state":
			t.State = v
		case "src":
			ip, ok := ParseIP(v)
			if !ok {
				return nil, ErrBadTCB
			}
			t.RemoteIP = ip
		case "dst":
			ip, ok := ParseIP(v)
			if !ok {
				return nil, ErrBadTCB
			}
			t.LocalIP = ip
		case "sport", "dport", "wnd":
			n, err := strconv.ParseUint(v, 10, 16)
			if err != nil {
				return nil, ErrBadTCB
			}
			switch k {
			case "sport":
				t.RemotePort = uint16(n)
			case "dport":
				t.LocalPort = uint16(n)
			case "wnd":
				t.Window = uint16(n)
			}
		case "iss", "irs", "snd-nxt", "rcv-nxt":
			n, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				return nil, ErrBadTCB
			}
			switch k {
			case "iss":
				t.ISS = uint32(n)
			case "irs":
				t.IRS = uint32(n)
			case "snd-nxt":
				t.SndNxt = uint32(n)
			case "rcv-nxt":
				t.RcvNxt = uint32(n)
			}
		case "buf":
			buf, err := hex.DecodeString(v)
			if err != nil {
				return nil, ErrBadTCB
			}
			t.Buffered = buf
		default:
			// Unknown fields are ignored for forward compatibility.
		}
	}
	if t.State == "" {
		return nil, ErrBadTCB
	}
	return t, nil
}
