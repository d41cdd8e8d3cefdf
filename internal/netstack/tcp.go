package netstack

import (
	"slices"
	"time"

	"jitsu/internal/sim"
)

// TCPState is the RFC 793 connection state.
type TCPState int

// Connection states. There is no LISTEN: a listener is an entry in the
// Host's table, never a TCPConn.
const (
	StateClosed TCPState = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
	StateClosing
	StateTimeWait
)

var tcpStateNames = [...]string{
	"CLOSED", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "LAST_ACK", "CLOSING", "TIME_WAIT",
}

func (s TCPState) String() string { return tcpStateNames[s] }

// TCP tuning. The stack favours fidelity of control-plane behaviour
// (handshakes, retransmission timing) over bulk-transfer sophistication:
// fixed windows, no SACK, no congestion control beyond a static cap —
// the simulated links are lossless, so the link rate is the bottleneck.
const (
	// DefaultMSS is the segment payload cap on our MTU-1500 fabric.
	DefaultMSS = 1460
	// tcpWindow is the advertised (and honoured) receive window.
	tcpWindow = 0xffff
	// synRTO is the initial SYN retransmission timeout. This 1-second
	// timer is the villain of §3.3: "The SYN packet is dropped, and the
	// client retransmits after 1s — well outside our low-latency
	// requirement."
	synRTO = 1 * time.Second
	// dataRTO is the initial retransmission timeout for data and FIN.
	dataRTO = 500 * time.Millisecond
	// maxRetries aborts a connection after this many back-offs.
	maxRetries = 6
	// timeWaitDelay is 2*MSL, shortened to keep simulations snappy.
	timeWaitDelay = 2 * time.Second
	// maxFlight caps unacknowledged bytes in flight (a static cwnd).
	maxFlight = 64 * 1024
	// A host keeps at most maxSpareSnd send buffers that finished
	// connections gave back, none with more than maxSpareSndCap bytes of
	// capacity (releaseSndBuf).
	maxSpareSnd    = 8
	maxSpareSndCap = 16 * 1024
)

func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// TCPListener accepts connections on a port.
type TCPListener struct {
	host   *Host
	onConn func(*TCPConn)
}

// ListenTCP binds port and invokes onConn for each connection once its
// three-way handshake completes.
func (h *Host) ListenTCP(port uint16, onConn func(*TCPConn)) (*TCPListener, error) {
	if _, ok := h.listeners[port]; ok {
		return nil, ErrPortInUse
	}
	l := &TCPListener{host: h, onConn: onConn}
	h.listeners[port] = l
	return l, nil
}

// TCPConn is one TCP connection endpoint.
type TCPConn struct {
	host  *Host
	key   fourTuple
	state TCPState

	iss, irs       uint32 // initial send / receive sequence numbers
	sndUna, sndNxt uint32
	rcvNxt         uint32
	sndWnd         uint16
	mss            int

	sndBuf    []byte // bytes from sndUna onward (unacked + unsent)
	finQueued bool
	finSent   bool

	rtxEv   sim.Event
	retries int // retransmits since the last progress

	app         ConnHandler           // the attached application
	onData      func([]byte)          // OnData's callback, if no application is attached
	dialDone    func(*TCPConn, error) // a dialled connection's callback, until established
	listener    *TCPListener          // an accepted connection's listener, until established
	pendingData [][]byte              // private copies, parked while nobody takes data
	closedErr   error
	ended       bool // the end came: Closed is owed to whoever attaches

	// BytesIn/BytesOut count application payload for diagnostics.
	BytesIn, BytesOut uint64
	// Retransmits counts RTO firings (visible in Figure 9a cold starts).
	Retransmits int
}

// LocalAddr returns the local endpoint address.
func (c *TCPConn) LocalAddr() (IP, uint16) { return c.key.localIP, c.key.localPort }

// ConnHandler is a connection's application: the object holding a
// fetch's or a session's state, so attaching it binds nothing. Data gets
// the payload in order, each slice a view of its frame clipped to its
// length — to keep (with the frame's slab — netsim.Handler), never to
// write. Closed reports the end once: nil for an orderly close,
// ErrConnReset / ErrTimeout otherwise, or why a dial never came up.
type ConnHandler interface {
	Data([]byte)
	Closed(error)
}

// Attach makes h the application: data that came earlier is delivered
// at once, then Closed if the end came too.
func (c *TCPConn) Attach(h ConnHandler) {
	c.app = h
	c.drain()
	if c.ended {
		h.Closed(c.closedErr)
	}
}

// OnData installs a receive callback for a connection with no
// application attached, ConnHandler.Data as a func; any data that
// arrived earlier is delivered immediately, preserving order.
func (c *TCPConn) OnData(fn func([]byte)) {
	c.onData = fn
	c.drain()
}

// drain delivers the parked data, now that someone takes it.
func (c *TCPConn) drain() {
	parked := c.pendingData
	c.pendingData = nil
	for _, b := range parked {
		c.take(b)
	}
}

// take hands b to the application, or else to OnData's callback.
func (c *TCPConn) take(b []byte) {
	c.BytesIn += uint64(len(b))
	if c.app != nil {
		c.app.Data(b)
	} else {
		c.onData(b)
	}
}

// DialTCP opens a connection; done, if not nil, fires when established
// or failed (an application attached meanwhile hears a failure as
// Closed). With every ephemeral port taken the dial fails with
// ErrNoEphemeralPorts — from an event, like any other dial failure —
// and the returned connection is already closed.
func (h *Host) DialTCP(dst IP, dstPort uint16, done func(*TCPConn, error)) *TCPConn {
	port, ok := h.ephemeralPort()
	if !ok {
		c := &TCPConn{host: h, state: StateClosed, closedErr: ErrNoEphemeralPorts, dialDone: done}
		h.Eng.After(0, c.notifyClosed)
		return c
	}
	c := &TCPConn{
		host: h,
		key: fourTuple{localIP: h.IP, remoteIP: dst,
			localPort: port, remotePort: dstPort},
		state:  StateSynSent,
		iss:    h.Eng.Rand().Uint32(),
		sndWnd: tcpWindow,
		mss:    DefaultMSS,

		dialDone: done,
	}
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	h.addConn(c)
	c.sendSegment(FlagSYN, c.iss, 0, nil, uint16(DefaultMSS))
	c.armRtx()
	return c
}

// Send queues application data for transmission, copying it into the
// send buffer before it returns: the caller may reuse data at once. On a
// connection still dialling it waits for the handshake.
func (c *TCPConn) Send(data []byte) error {
	return c.write(func(b []byte) []byte { return append(b, data...) })
}

// write is every send's path: render appends to the send buffer, so a
// message rendered there is not copied again.
func (c *TCPConn) write(render func([]byte) []byte) error {
	switch c.state {
	case StateSynSent, StateEstablished, StateCloseWait:
	default:
		return ErrConnClosed
	}
	if c.finQueued {
		return ErrConnClosed
	}
	if k := len(c.host.spareSnd); c.sndBuf == nil && k > 0 {
		c.sndBuf = c.host.spareSnd[k-1] // a finished connection's (releaseSndBuf)
		c.host.spareSnd = slices.Delete(c.host.spareSnd, k-1, k)
	}
	n := len(c.sndBuf)
	c.sndBuf = render(c.sndBuf)
	c.BytesOut += uint64(len(c.sndBuf) - n)
	c.trySend()
	return nil
}

// Close performs an orderly shutdown: a FIN follows any queued data.
func (c *TCPConn) Close() {
	switch c.state {
	case StateEstablished, StateSynRcvd:
		c.finQueued = true
		c.state = StateFinWait1
	case StateCloseWait:
		c.finQueued = true
		c.state = StateLastAck
	case StateSynSent:
		c.finQueued = true // FIN_WAIT_1 at the handshake, behind what is queued
	default:
		return
	}
	c.trySend()
}

// Abort sends RST and drops the connection immediately.
func (c *TCPConn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.sendSegment(FlagRST|FlagACK, c.sndNxt, c.rcvNxt, nil, 0)
	c.teardown(ErrConnReset)
}

// ---- internals ----

// sendSegment emits one segment on the wire.
func (c *TCPConn) sendSegment(flags byte, seq, ack uint32, payload []byte, mssOpt uint16) {
	seg := TCPSegment{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: seq, Ack: ack, Flags: flags, Window: tcpWindow, MSS: mssOpt,
	}
	if c.host.TraceTCP != nil {
		traced := seg
		traced.payload = payload
		c.host.TraceTCP("tx", &traced)
	}
	c.host.sendTCP(c.key.localIP, c.key.remoteIP, &seg, payload)
}

// sendTCP renders seg and payload into the scratch frame and routes it.
func (h *Host) sendTCP(src, dst IP, seg *TCPSegment, payload []byte) {
	frame := h.txFrame(txHeadroom + seg.headerLen() + len(payload))
	seg.EncodeInto(frame[txHeadroom:], src, dst, payload)
	h.sendIPv4(src, dst, ProtoTCP, frame, 0)
}

// trySend transmits as much of sndBuf as the windows allow, then the FIN
// if queued and fully drained.
func (c *TCPConn) trySend() {
	wnd := int(c.sndWnd)
	if wnd > maxFlight {
		wnd = maxFlight
	}
	inFlight := int(c.sndNxt - c.sndUna)
	if c.state == StateSynSent || c.state == StateSynRcvd {
		return // SYN occupies the window until acked
	}
	sent := false
	for {
		offset := int(c.sndNxt - c.sndUna)
		if c.finSent {
			offset-- // FIN consumed one sequence number past the data
		}
		avail := len(c.sndBuf) - offset
		if avail <= 0 || inFlight >= wnd || c.finSent {
			break
		}
		n := avail
		if n > c.mss {
			n = c.mss
		}
		if n > wnd-inFlight {
			n = wnd - inFlight
		}
		if n <= 0 {
			break
		}
		c.sendSegment(FlagACK|FlagPSH, c.sndNxt, c.rcvNxt, c.sndBuf[offset:offset+n], 0)
		c.sndNxt += uint32(n)
		inFlight += n
		sent = true
	}
	if c.finQueued && !c.finSent && int(c.sndNxt-c.sndUna) == len(c.sndBuf) {
		c.sendSegment(FlagFIN|FlagACK, c.sndNxt, c.rcvNxt, nil, 0)
		c.sndNxt++
		c.finSent = true
		sent = true
	}
	if sent {
		c.armRtx()
	}
}

// armRtx (re)starts the retransmission timer if anything is outstanding.
func (c *TCPConn) armRtx() {
	c.host.Eng.Cancel(c.rtxEv)
	if c.sndUna == c.sndNxt {
		return
	}
	wait, _ := c.backoff().Next(c.retries, nil)
	c.rtxEv = c.after(wait)
}

// backoff is the connection's retransmit schedule: from synRTO while
// the SYN is unanswered, from dataRTO otherwise, doubling per firing.
func (c *TCPConn) backoff() sim.Backoff {
	b := sim.Backoff{Initial: dataRTO, Factor: 2, Retries: maxRetries}
	if c.state == StateSynSent {
		b.Initial = synRTO
	}
	return b
}

// connTimer is the connection as its timers' sim.Handler.
type connTimer TCPConn

func (c *TCPConn) after(d sim.Duration) sim.Event {
	return c.host.Eng.AfterHandler(d, (*connTimer)(c))
}

// Fire serves both of the connection's timers, which are never armed
// together (enterTimeWait cancels the retransmission timer): 2*MSL
// expiry in TIME_WAIT, retransmission in every other state.
func (t *connTimer) Fire() {
	if c := (*TCPConn)(t); c.state == StateTimeWait {
		c.teardown(nil)
	} else {
		c.retransmit()
	}
}

// retransmit resends from sndUna with exponential backoff; the verdict
// reads armRtx's c.retries, as the timer event carries nothing.
func (c *TCPConn) retransmit() {
	if c.sndUna == c.sndNxt || c.state == StateClosed {
		return
	}
	c.Retransmits++
	if _, more := c.backoff().Next(c.retries, nil); !more {
		c.teardown(ErrTimeout)
		return
	}
	c.retries++
	switch c.state {
	case StateSynSent:
		c.sendSegment(FlagSYN, c.iss, 0, nil, uint16(DefaultMSS))
	case StateSynRcvd:
		c.sendSegment(FlagSYN|FlagACK, c.iss, c.rcvNxt, nil, uint16(DefaultMSS))
	default:
		if n := min(len(c.sndBuf), c.mss); n > 0 {
			c.sendSegment(FlagACK|FlagPSH, c.sndUna, c.rcvNxt, c.sndBuf[:n], 0)
		} else if c.finSent {
			c.sendSegment(FlagFIN|FlagACK, c.sndNxt-1, c.rcvNxt, nil, 0)
		}
	}
	c.armRtx()
}

// handleTCP is the host demux: existing connection, listener, or RST.
// dst is the actual destination address (primary IP or alias), so one
// stack can serve many addresses — the Synjitsu proxy does.
func (h *Host) handleTCP(src, dst IP, payload []byte) {
	if err := h.tcp.DecodeFromBytes(payload, src, dst); err != nil {
		h.RxDropped++
		return
	}
	if h.TraceTCP != nil {
		h.TraceTCP("rx", &h.tcp)
	}
	seg := h.tcp
	key := fourTuple{localIP: dst, remoteIP: src, localPort: seg.DstPort, remotePort: seg.SrcPort}
	if c, ok := h.conns[key]; ok {
		c.handleSegment(&seg)
		return
	}
	if l, ok := h.listeners[seg.DstPort]; ok && seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		l.acceptSYN(src, dst, &seg)
		return
	}
	// No socket: RST (unless the offender was itself an RST).
	if seg.Flags&FlagRST == 0 {
		h.sendRST(src, dst, &seg)
	}
}

func (h *Host) sendRST(src, dst IP, seg *TCPSegment) {
	var rst TCPSegment
	rst.SrcPort, rst.DstPort = seg.DstPort, seg.SrcPort
	rst.Flags = FlagRST | FlagACK
	rst.Seq = seg.Ack
	rst.Ack = seg.Seq + uint32(len(seg.Payload()))
	if seg.Flags&FlagSYN != 0 {
		rst.Ack++
	}
	h.sendTCP(dst, src, &rst, nil)
}

// acceptSYN creates the half-open server-side connection and answers
// SYN-ACK.
func (l *TCPListener) acceptSYN(src, dst IP, seg *TCPSegment) {
	h := l.host
	c := &TCPConn{
		host: h,
		key: fourTuple{localIP: dst, remoteIP: src,
			localPort: seg.DstPort, remotePort: seg.SrcPort},
		state:  StateSynRcvd,
		iss:    h.Eng.Rand().Uint32(),
		irs:    seg.Seq,
		rcvNxt: seg.Seq + 1,
		sndWnd: seg.Window,
		mss:    DefaultMSS,

		listener: l,
	}
	if seg.MSS != 0 && int(seg.MSS) < c.mss {
		c.mss = int(seg.MSS)
	}
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	h.addConn(c)
	c.sendSegment(FlagSYN|FlagACK, c.iss, c.rcvNxt, nil, uint16(DefaultMSS))
	c.armRtx()
}

// handleSegment is the per-connection state machine.
func (c *TCPConn) handleSegment(seg *TCPSegment) {
	if seg.Flags&FlagRST != 0 {
		if c.state == StateSynSent && seg.Ack != c.iss+1 {
			return // RST for something else
		}
		c.teardown(ErrConnReset)
		return
	}

	switch c.state {
	case StateSynSent:
		if seg.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK && seg.Ack == c.iss+1 {
			c.irs = seg.Seq
			c.rcvNxt = seg.Seq + 1
			c.sndUna = seg.Ack
			c.sndWnd = seg.Window
			if seg.MSS != 0 && int(seg.MSS) < c.mss {
				c.mss = int(seg.MSS)
			}
			c.state = StateEstablished
			if c.finQueued {
				c.state = StateFinWait1
			}
			c.retries = 0
			c.host.Eng.Cancel(c.rtxEv)
			c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, nil, 0)
			c.established()
			c.trySend()
		}
		return
	case StateSynRcvd:
		if seg.Flags&FlagACK != 0 && seg.Ack == c.iss+1 {
			c.sndUna = seg.Ack
			c.sndWnd = seg.Window
			c.state = StateEstablished
			c.retries = 0
			c.host.Eng.Cancel(c.rtxEv)
			c.established()
			// Fall through to process any piggybacked payload.
		} else if seg.Flags&FlagSYN != 0 {
			// Duplicate SYN: repeat the SYN-ACK.
			c.sendSegment(FlagSYN|FlagACK, c.iss, c.rcvNxt, nil, uint16(DefaultMSS))
			return
		} else {
			return
		}
	}

	// ACK processing.
	if seg.Flags&FlagACK != 0 {
		if seqLT(c.sndUna, seg.Ack) && seqLEQ(seg.Ack, c.sndNxt) {
			acked := seg.Ack - c.sndUna
			dataAcked := acked
			if c.finSent && seg.Ack == c.sndNxt {
				dataAcked-- // the FIN's sequence slot
			}
			// The unacknowledged tail moves down instead of the slice moving
			// up, so a long-lived connection keeps one buffer's capacity.
			c.sndBuf = c.sndBuf[:copy(c.sndBuf, c.sndBuf[min(int(dataAcked), len(c.sndBuf)):])]
			c.sndUna = seg.Ack
			c.retries = 0
			c.armRtx()
			// FIN fully acknowledged?
			if c.finSent && c.sndUna == c.sndNxt {
				switch c.state {
				case StateFinWait1:
					c.state = StateFinWait2
				case StateClosing:
					c.enterTimeWait()
				case StateLastAck:
					c.teardown(nil)
					return
				}
			}
		}
		c.sndWnd = seg.Window
	}

	// In-order data.
	payload := seg.Payload()
	if len(payload) > 0 {
		switch c.state {
		case StateEstablished, StateFinWait1, StateFinWait2:
			if seg.Seq == c.rcvNxt {
				c.rcvNxt += uint32(len(payload))
				c.deliver(payload)
				c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, nil, 0)
			} else {
				// Out of order or duplicate: re-ACK our position.
				c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, nil, 0)
			}
		default:
			c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, nil, 0)
		}
	}

	// FIN processing (only when it is the next expected sequence).
	if seg.Flags&FlagFIN != 0 && seg.Seq+uint32(len(payload)) == c.rcvNxt ||
		seg.Flags&FlagFIN != 0 && seg.Seq == c.rcvNxt {
		c.rcvNxt++
		c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, nil, 0)
		switch c.state {
		case StateEstablished:
			// Orderly: the app hears Closed(nil) and should Close its side
			// (half-close semantics: watch State() == CLOSE_WAIT).
			c.state = StateCloseWait
			c.notifyClosed()
		case StateFinWait1:
			if c.finSent && c.sndUna == c.sndNxt {
				c.enterTimeWait()
			} else {
				c.state = StateClosing
			}
		case StateFinWait2:
			c.enterTimeWait()
		}
	}

	c.trySend()
}

// established tells whoever set the connection up — the dialler or the
// listener — that the handshake is done, and lets go of both.
func (c *TCPConn) established() {
	done, l := c.dialDone, c.listener
	c.dialDone, c.listener = nil, nil
	if done != nil {
		done(c, nil)
	} else if l != nil {
		l.onConn(c)
	}
}

// deliver hands the application payload itself, a view of the received
// frame (immutable and never reused — netsim.Handler) with its capacity
// clipped so a consumer's append copies. With nobody to take it, it is
// parked as a private copy: it can sit through a Synjitsu boot and must
// not pin its frame's slab.
func (c *TCPConn) deliver(payload []byte) {
	if c.app == nil && c.onData == nil {
		c.pendingData = append(c.pendingData, append([]byte(nil), payload...))
		return
	}
	c.take(payload[:len(payload):len(payload)])
}

// enterTimeWait parks the connection for 2*MSL. Both directions are
// shut — nothing more is sent, delivered or established — so it keeps
// its Closed and lets go of the rest: a busy host holds thousands.
func (c *TCPConn) enterTimeWait() {
	c.state = StateTimeWait
	c.host.Eng.Cancel(c.rtxEv)
	c.releaseSndBuf()
	c.onData, c.dialDone, c.listener = nil, nil, nil
	c.after(timeWaitDelay)
}

// teardown finishes the connection and notifies the app.
func (c *TCPConn) teardown(err error) {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	c.host.Eng.Cancel(c.rtxEv)
	c.host.dropConn(c)
	c.releaseSndBuf()
	c.closedErr = err
	c.notifyClosed()
}

// notifyClosed tells the application, once, that the connection ended
// with closedErr, or a dial's callback that it never came up; with
// neither, Attach tells the application it brings.
func (c *TCPConn) notifyClosed() {
	if c.ended {
		return
	}
	c.ended = true
	if err, done := c.closedErr, c.dialDone; c.app != nil {
		c.app.Closed(err)
	} else if done != nil {
		c.dialDone = nil
		if err == nil {
			err = ErrConnClosed
		}
		done(nil, err)
	}
}

// releaseSndBuf gives the send buffer of a connection that sends no more
// to its host, for the next connection's first write: every segment cut
// from it was copied into its frame, so nothing else refers to it.
func (c *TCPConn) releaseSndBuf() {
	if b := c.sndBuf; cap(b) > 0 && cap(b) <= maxSpareSndCap && len(c.host.spareSnd) < maxSpareSnd {
		c.host.spareSnd = append(c.host.spareSnd, b[:0])
	}
	c.sndBuf = nil
}
