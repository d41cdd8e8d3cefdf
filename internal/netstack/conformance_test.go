package netstack

import (
	"fmt"
	"strings"
	"testing"

	"jitsu/internal/netsim"
	"jitsu/internal/sim"
)

// The TCP receive path, state by segment. One connection under test is
// accepted from a scripted peer (no second stack: segments are handed
// straight to handleTCP and replies are read off TraceTCP), driven to a
// state, shown one stimulus, and held to what the application saw, how
// far rcvNxt moved, what was sent in reply and where the connection
// ended up. The expectations record what the stack does; cells marked
// finding are behaviour that looks wrong and is written down, not fixed,
// here — the fingerprints must not move.

var (
	peerIP = IPv4(10, 0, 0, 9)
	dutIP  = IPv4(10, 0, 0, 20)
)

const (
	peerPort = 40000
	peerISS  = 1000
)

type stimulus int

const (
	inOrder    stimulus = iota // 3 bytes at rcvNxt
	duplicate                  // the 3 bytes already received, again
	outOfOrder                 // 3 bytes 100 past rcvNxt
	dataFIN                    // 3 bytes at rcvNxt with FIN set
	bareFIN                    // FIN at rcvNxt
	rexmitFIN                  // the peer's FIN a second time
	reset                      // RST
	lateAttach                 // 3 bytes at rcvNxt, the application attached afterwards
	imported                   // the same on a connection imported with Buffered bytes
)

var stimulusNames = [...]string{"in-order data", "duplicate", "out-of-order", "data+FIN",
	"bare FIN", "retransmitted FIN", "RST", "data before Attach", "data across TCB import"}

// dut is the connection under test and everything it said and did.
type dut struct {
	t      *testing.T
	h      *Host
	c      *TCPConn
	app    []string // one entry per Data call
	closes []string // one entry per Closed call
	tx     []string // segments sent since mark
	// snd0/rcv0 are sndNxt/rcvNxt at mark: replies read relative to them.
	snd0, rcv0 uint32
}

func newHost(d *dut) *Host {
	eng := sim.New(1)
	nic := netsim.NewNIC(eng, "dut", netsim.MACFor(2)) // unplugged: replies are read off the trace
	h := NewHost(eng, "dut", nic, dutIP, StackProfile{})
	h.SeedARP(peerIP, netsim.MACFor(1))
	h.TraceTCP = func(dir string, seg *TCPSegment) {
		if dir == "tx" {
			d.tx = append(d.tx, fmt.Sprintf("%s seq%+d ack%+d", flagNames(seg.Flags), int32(seg.Seq-d.snd0), int32(seg.Ack-d.rcv0)))
		}
	}
	return h
}

func flagNames(f byte) string {
	var out []string
	for _, n := range []struct {
		bit  byte
		name string
	}{{FlagSYN, "SYN"}, {FlagFIN, "FIN"}, {FlagRST, "RST"}, {FlagPSH, "PSH"}, {FlagACK, "ACK"}} {
		if f&n.bit != 0 {
			out = append(out, n.name)
		}
	}
	return strings.Join(out, "+")
}

func (d *dut) Data(b []byte)    { d.app = append(d.app, string(b)) }
func (d *dut) Closed(err error) { d.closes = append(d.closes, fmt.Sprint(err)) }

// inject hands the stack one segment from the peer, acknowledging
// nothing new (Ack = sndUna) unless ack says otherwise.
func (d *dut) inject(flags byte, seq uint32, payload string, ack ...uint32) {
	seg := TCPSegment{SrcPort: peerPort, DstPort: 80, Seq: seq, Ack: d.c.sndUna, Flags: flags, Window: tcpWindow}
	if len(ack) > 0 {
		seg.Ack = ack[0]
	}
	d.h.handleTCP(peerIP, dutIP, tcpSegment(seg, peerIP, dutIP, []byte(payload)))
}

func (d *dut) mark() { d.tx, d.snd0, d.rcv0 = nil, d.c.sndNxt, d.c.rcvNxt }

// accept completes a handshake with the scripted peer and has it send
// "pre". withApp attaches the application on accept; without it
// everything received is parked, and so is the end (Attach replays it).
func accept(t *testing.T, withApp bool) *dut {
	d := &dut{t: t}
	d.h = newHost(d)
	d.h.ListenTCP(80, func(c *TCPConn) {
		d.c = c
		if withApp {
			c.Attach(d)
		}
	})
	syn := TCPSegment{SrcPort: peerPort, DstPort: 80, Seq: peerISS, Flags: FlagSYN, Window: tcpWindow}
	d.h.handleTCP(peerIP, dutIP, tcpSegment(syn, peerIP, dutIP, nil))
	for _, c := range d.h.conns {
		d.c = c
	}
	d.inject(FlagACK, peerISS+1, "", d.c.sndNxt)
	d.inject(FlagACK|FlagPSH, peerISS+1, "pre")
	if d.c.state != StateEstablished || d.c.rcvNxt != peerISS+4 {
		t.Fatalf("setup: %v, rcvNxt %d", d.c.state, d.c.rcvNxt)
	}
	return d
}

// handoff moves the connection to a second stack the way Synjitsu
// does: export with the parked bytes, forget, import.
func (d *dut) handoff() {
	tcb, err := d.c.ExportTCB()
	if err != nil {
		d.t.Fatal(err)
	}
	if string(tcb.Buffered) != "pre" {
		d.t.Fatalf("exported Buffered = %q", tcb.Buffered)
	}
	d.c.Forget()
	d.h = newHost(d)
	if d.c, err = d.h.ImportTCB(tcb); err != nil {
		d.t.Fatal(err)
	}
}

// drive takes an established connection to state.
func (d *dut) drive(state TCPState) {
	fin := func(ack uint32) { d.inject(FlagFIN|FlagACK, d.c.rcvNxt, "", ack) }
	switch state {
	case StateEstablished:
	case StateFinWait1:
		d.c.Close()
	case StateFinWait2:
		d.c.Close()
		d.inject(FlagACK, d.c.rcvNxt, "", d.c.sndNxt)
	case StateCloseWait:
		fin(d.c.sndUna)
	case StateClosing:
		d.c.Close()
		fin(d.c.sndUna) // our FIN still unacknowledged
	case StateLastAck:
		fin(d.c.sndUna)
		d.c.Close()
	case StateTimeWait:
		d.c.Close()
		d.inject(FlagACK, d.c.rcvNxt, "", d.c.sndNxt)
		fin(d.c.sndNxt)
	}
	if d.c.state != state {
		d.t.Fatalf("drive: in %v, want %v", d.c.state, state)
	}
}

// apply shows the connection one stimulus.
func (d *dut) apply(s stimulus) {
	d.mark()
	switch s {
	case inOrder, lateAttach, imported:
		d.inject(FlagACK|FlagPSH, d.c.rcvNxt, "abc")
		if s != inOrder {
			d.c.Attach(d)
		}
	case duplicate:
		d.inject(FlagACK|FlagPSH, peerISS+1, "pre")
	case outOfOrder:
		d.inject(FlagACK|FlagPSH, d.c.rcvNxt+100, "abc")
	case dataFIN:
		d.inject(FlagFIN|FlagACK|FlagPSH, d.c.rcvNxt, "abc")
	case bareFIN:
		d.inject(FlagFIN|FlagACK, d.c.rcvNxt, "")
	case rexmitFIN:
		switch d.c.state {
		case StateEstablished, StateFinWait1, StateFinWait2:
			// No FIN seen yet: the first one moves the state, the
			// row is about the second.
			d.inject(FlagFIN|FlagACK, d.c.rcvNxt, "")
			d.mark()
		}
		d.inject(FlagFIN|FlagACK, d.c.rcvNxt-1, "")
	case reset:
		d.inject(FlagRST, d.c.rcvNxt, "")
	}
}

type tcpCell struct {
	state TCPState
	stim  stimulus
	app   string // Data calls, "|"-separated
	rcv   int32  // how far rcvNxt moved
	reply string // segments sent, relative to sndNxt/rcvNxt before the stimulus
	end   TCPState
	close string // Closed calls
	// finding marks behaviour recorded as it is, not as it should be.
	finding string
}

func TestTCPReceiveConformance(t *testing.T) {
	states := []TCPState{StateEstablished, StateFinWait1, StateFinWait2, StateCloseWait,
		StateClosing, StateLastAck, StateTimeWait}
	want := make(map[[2]int]tcpCell)
	for _, c := range tcpReceiveTable {
		want[[2]int{int(c.state), int(c.stim)}] = c
	}
	if len(want) != len(states)*len(stimulusNames) {
		t.Errorf("table has %d cells, want %d", len(want), len(states)*len(stimulusNames))
	}
	for _, state := range states {
		for s := range stimulusNames {
			stim := stimulus(s)
			d := accept(t, stim != lateAttach && stim != imported)
			if stim == imported {
				d.handoff()
			}
			d.drive(state)
			d.apply(stim)
			got := tcpCell{state: state, stim: stim, app: strings.Join(d.app, "|"),
				rcv: int32(d.c.rcvNxt - d.rcv0), reply: strings.Join(d.tx, ", "), end: d.c.state,
				close: strings.Join(d.closes, "|")}
			w := want[[2]int{int(state), s}]
			got.finding = w.finding
			if got != w {
				t.Errorf("%v × %s:\n got %s\nwant %s", state, stimulusNames[s], got.literal(), w.literal())
			}
		}
	}
}

var stateIdents = [...]string{"StateClosed", "StateSynSent", "StateSynRcvd", "StateEstablished",
	"StateFinWait1", "StateFinWait2", "StateCloseWait", "StateLastAck", "StateClosing", "StateTimeWait"}

var stimulusIdents = [...]string{"inOrder", "duplicate", "outOfOrder", "dataFIN", "bareFIN",
	"rexmitFIN", "reset", "lateAttach", "imported"}

// literal renders the cell as its line in tcpReceiveTable.
func (c tcpCell) literal() string {
	return fmt.Sprintf("{%s, %s, %q, %d, %q, %s, %q, %q},", stateIdents[c.state], stimulusIdents[c.stim],
		c.app, c.rcv, c.reply, stateIdents[c.end], c.close, c.finding)
}

// The findings, each recorded in CHANGES.md (PR 23).
const (
	// A FIN riding on data the state refused is taken at seg.Seq, three
	// bytes before its own sequence number: handleSegment's second FIN
	// clause matches seg.Seq == rcvNxt whatever the payload.
	refusedDataFIN = "FIN accepted on a segment whose data was refused"
	// After the peer's FIN nothing more can arrive in sequence, yet each
	// further FIN at rcvNxt is acknowledged and moves rcvNxt again.
	secondFIN = "a second FIN moves rcvNxt"
	// RFC 793 acknowledges a retransmitted FIN (and TIME_WAIT restarts
	// 2*MSL): if our ACK was lost the peer retransmits until it gives up.
	silentOnFINRexmit = "a retransmitted FIN is not acknowledged"
)

var tcpReceiveTable = []tcpCell{
	{StateEstablished, inOrder, "pre|abc", 3, "ACK seq+0 ack+3", StateEstablished, "", ""},
	{StateEstablished, duplicate, "pre", 0, "ACK seq+0 ack+0", StateEstablished, "", ""},
	{StateEstablished, outOfOrder, "pre", 0, "ACK seq+0 ack+0", StateEstablished, "", ""},
	{StateEstablished, dataFIN, "pre|abc", 4, "ACK seq+0 ack+3, ACK seq+0 ack+4", StateCloseWait, "<nil>", ""},
	{StateEstablished, bareFIN, "pre", 1, "ACK seq+0 ack+1", StateCloseWait, "<nil>", ""},
	{StateEstablished, rexmitFIN, "pre", 0, "", StateCloseWait, "<nil>", silentOnFINRexmit},
	{StateEstablished, reset, "pre", 0, "", StateClosed, "netstack: connection reset by peer", ""},
	{StateEstablished, lateAttach, "pre|abc", 3, "ACK seq+0 ack+3", StateEstablished, "", ""},
	{StateEstablished, imported, "pre|abc", 3, "ACK seq+0 ack+3", StateEstablished, "", ""},
	{StateFinWait1, inOrder, "pre|abc", 3, "ACK seq+0 ack+3", StateFinWait1, "", ""},
	{StateFinWait1, duplicate, "pre", 0, "ACK seq+0 ack+0", StateFinWait1, "", ""},
	{StateFinWait1, outOfOrder, "pre", 0, "ACK seq+0 ack+0", StateFinWait1, "", ""},
	{StateFinWait1, dataFIN, "pre|abc", 4, "ACK seq+0 ack+3, ACK seq+0 ack+4", StateClosing, "", ""},
	{StateFinWait1, bareFIN, "pre", 1, "ACK seq+0 ack+1", StateClosing, "", ""},
	{StateFinWait1, rexmitFIN, "pre", 0, "", StateClosing, "", silentOnFINRexmit},
	{StateFinWait1, reset, "pre", 0, "", StateClosed, "netstack: connection reset by peer", ""},
	{StateFinWait1, lateAttach, "pre|abc", 3, "ACK seq+0 ack+3", StateFinWait1, "", ""},
	{StateFinWait1, imported, "pre|abc", 3, "ACK seq+0 ack+3", StateFinWait1, "", ""},
	{StateFinWait2, inOrder, "pre|abc", 3, "ACK seq+0 ack+3", StateFinWait2, "", ""},
	{StateFinWait2, duplicate, "pre", 0, "ACK seq+0 ack+0", StateFinWait2, "", ""},
	{StateFinWait2, outOfOrder, "pre", 0, "ACK seq+0 ack+0", StateFinWait2, "", ""},
	{StateFinWait2, dataFIN, "pre|abc", 4, "ACK seq+0 ack+3, ACK seq+0 ack+4", StateTimeWait, "", ""},
	{StateFinWait2, bareFIN, "pre", 1, "ACK seq+0 ack+1", StateTimeWait, "", ""},
	{StateFinWait2, rexmitFIN, "pre", 0, "", StateTimeWait, "", silentOnFINRexmit},
	{StateFinWait2, reset, "pre", 0, "", StateClosed, "netstack: connection reset by peer", ""},
	{StateFinWait2, lateAttach, "pre|abc", 3, "ACK seq+0 ack+3", StateFinWait2, "", ""},
	{StateFinWait2, imported, "pre|abc", 3, "ACK seq+0 ack+3", StateFinWait2, "", ""},
	{StateCloseWait, inOrder, "pre", 0, "ACK seq+0 ack+0", StateCloseWait, "<nil>", ""},
	{StateCloseWait, duplicate, "pre", 0, "ACK seq+0 ack+0", StateCloseWait, "<nil>", ""},
	{StateCloseWait, outOfOrder, "pre", 0, "ACK seq+0 ack+0", StateCloseWait, "<nil>", ""},
	{StateCloseWait, dataFIN, "pre", 1, "ACK seq+0 ack+0, ACK seq+0 ack+1", StateCloseWait, "<nil>", refusedDataFIN},
	{StateCloseWait, bareFIN, "pre", 1, "ACK seq+0 ack+1", StateCloseWait, "<nil>", secondFIN},
	{StateCloseWait, rexmitFIN, "pre", 0, "", StateCloseWait, "<nil>", silentOnFINRexmit},
	{StateCloseWait, reset, "pre", 0, "", StateClosed, "<nil>", ""},
	{StateCloseWait, lateAttach, "pre", 0, "ACK seq+0 ack+0", StateCloseWait, "<nil>", ""},
	{StateCloseWait, imported, "pre", 0, "ACK seq+0 ack+0", StateCloseWait, "<nil>", ""},
	{StateClosing, inOrder, "pre", 0, "ACK seq+0 ack+0", StateClosing, "", ""},
	{StateClosing, duplicate, "pre", 0, "ACK seq+0 ack+0", StateClosing, "", ""},
	{StateClosing, outOfOrder, "pre", 0, "ACK seq+0 ack+0", StateClosing, "", ""},
	{StateClosing, dataFIN, "pre", 1, "ACK seq+0 ack+0, ACK seq+0 ack+1", StateClosing, "", refusedDataFIN},
	{StateClosing, bareFIN, "pre", 1, "ACK seq+0 ack+1", StateClosing, "", secondFIN},
	{StateClosing, rexmitFIN, "pre", 0, "", StateClosing, "", silentOnFINRexmit},
	{StateClosing, reset, "pre", 0, "", StateClosed, "netstack: connection reset by peer", ""},
	{StateClosing, lateAttach, "pre", 0, "ACK seq+0 ack+0", StateClosing, "", ""},
	{StateClosing, imported, "pre", 0, "ACK seq+0 ack+0", StateClosing, "", ""},
	{StateLastAck, inOrder, "pre", 0, "ACK seq+0 ack+0", StateLastAck, "<nil>", ""},
	{StateLastAck, duplicate, "pre", 0, "ACK seq+0 ack+0", StateLastAck, "<nil>", ""},
	{StateLastAck, outOfOrder, "pre", 0, "ACK seq+0 ack+0", StateLastAck, "<nil>", ""},
	{StateLastAck, dataFIN, "pre", 1, "ACK seq+0 ack+0, ACK seq+0 ack+1", StateLastAck, "<nil>", refusedDataFIN},
	{StateLastAck, bareFIN, "pre", 1, "ACK seq+0 ack+1", StateLastAck, "<nil>", secondFIN},
	{StateLastAck, rexmitFIN, "pre", 0, "", StateLastAck, "<nil>", silentOnFINRexmit},
	{StateLastAck, reset, "pre", 0, "", StateClosed, "<nil>", ""},
	{StateLastAck, lateAttach, "pre", 0, "ACK seq+0 ack+0", StateLastAck, "<nil>", ""},
	{StateLastAck, imported, "pre", 0, "ACK seq+0 ack+0", StateLastAck, "<nil>", ""},
	{StateTimeWait, inOrder, "pre", 0, "ACK seq+0 ack+0", StateTimeWait, "", ""},
	{StateTimeWait, duplicate, "pre", 0, "ACK seq+0 ack+0", StateTimeWait, "", ""},
	{StateTimeWait, outOfOrder, "pre", 0, "ACK seq+0 ack+0", StateTimeWait, "", ""},
	{StateTimeWait, dataFIN, "pre", 1, "ACK seq+0 ack+0, ACK seq+0 ack+1", StateTimeWait, "", refusedDataFIN},
	{StateTimeWait, bareFIN, "pre", 1, "ACK seq+0 ack+1", StateTimeWait, "", secondFIN},
	{StateTimeWait, rexmitFIN, "pre", 0, "", StateTimeWait, "", silentOnFINRexmit},
	{StateTimeWait, reset, "pre", 0, "", StateClosed, "netstack: connection reset by peer", ""},
	{StateTimeWait, lateAttach, "pre", 0, "ACK seq+0 ack+0", StateTimeWait, "", ""},
	{StateTimeWait, imported, "pre", 0, "ACK seq+0 ack+0", StateTimeWait, "", ""},
}

// TestOwesByState pins Host.Owes, the question the reclaim rule asks of
// a guest, state by state: a connection owes its peer while a SYN, data
// or a FIN it sent is unacknowledged. Data a zero window holds back owes
// nothing: no timer bounds that wait.
func TestOwesByState(t *testing.T) {
	synRcvd := func(t *testing.T) *dut {
		d := &dut{t: t}
		d.h = newHost(d)
		d.h.ListenTCP(80, func(*TCPConn) {})
		syn := TCPSegment{SrcPort: peerPort, DstPort: 80, Seq: peerISS, Flags: FlagSYN, Window: tcpWindow}
		d.h.handleTCP(peerIP, dutIP, tcpSegment(syn, peerIP, dutIP, nil))
		for _, c := range d.h.conns {
			d.c = c
		}
		return d
	}
	established := func(then func(d *dut)) func(*testing.T) *dut {
		return func(t *testing.T) *dut {
			d := accept(t, true)
			then(d)
			return d
		}
	}
	reply := func(d *dut) { d.c.Send([]byte("reply")) }
	for _, row := range []struct {
		name  string
		build func(*testing.T) *dut
		state TCPState
		owes  bool
	}{
		{"SYN_RCVD", synRcvd, StateSynRcvd, true},
		{"SYN_SENT", func(t *testing.T) *dut {
			d := &dut{t: t}
			d.h = newHost(d)
			d.c = d.h.DialTCP(peerIP, 80, nil)
			return d
		}, StateSynSent, true},
		{"ESTABLISHED idle", established(func(*dut) {}), StateEstablished, false},
		{"ESTABLISHED imported", func(t *testing.T) *dut {
			d := accept(t, false)
			d.handoff()
			return d
		}, StateEstablished, false},
		{"ESTABLISHED unacked data", established(reply), StateEstablished, true},
		{"ESTABLISHED data acked", established(func(d *dut) {
			reply(d)
			d.inject(FlagACK, d.c.rcvNxt, "", d.c.sndNxt)
		}), StateEstablished, false},
		{"ESTABLISHED data held by a zero window", established(func(d *dut) {
			shut := TCPSegment{SrcPort: peerPort, DstPort: 80, Seq: d.c.rcvNxt, Ack: d.c.sndNxt, Flags: FlagACK}
			d.h.handleTCP(peerIP, dutIP, tcpSegment(shut, peerIP, dutIP, nil))
			reply(d)
			if d.c.sndUna != d.c.sndNxt {
				d.t.Fatal("setup: the reply went out into a zero window")
			}
		}), StateEstablished, false},
		{"FIN_WAIT_1 reply unacked", established(func(d *dut) {
			reply(d)
			d.drive(StateFinWait1)
		}), StateFinWait1, true},
		{"FIN_WAIT_2", established(func(d *dut) { d.drive(StateFinWait2) }), StateFinWait2, false},
		{"CLOSE_WAIT", established(func(d *dut) { d.drive(StateCloseWait) }), StateCloseWait, false},
		{"CLOSING", established(func(d *dut) { d.drive(StateClosing) }), StateClosing, true},
		{"LAST_ACK", established(func(d *dut) { d.drive(StateLastAck) }), StateLastAck, true},
		{"TIME_WAIT", established(func(d *dut) { d.drive(StateTimeWait) }), StateTimeWait, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			d := row.build(t)
			if d.c.state != row.state {
				t.Fatalf("built %v, want %v", d.c.state, row.state)
			}
			if got := d.h.Owes(); got != row.owes {
				t.Errorf("Owes() = %v, want %v", got, row.owes)
			}
		})
	}
}
