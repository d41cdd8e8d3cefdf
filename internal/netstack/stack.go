package netstack

import (
	"errors"
	"fmt"
	"time"

	"jitsu/internal/netsim"
	"jitsu/internal/sim"
)

// Stack-level errors.
var (
	ErrPortInUse  = errors.New("netstack: port already bound")
	ErrConnClosed = errors.New("netstack: connection closed")
	ErrConnReset  = errors.New("netstack: connection reset by peer")
	ErrTimeout    = errors.New("netstack: timed out")
	// ErrNoEphemeralPorts fails a dial when every client port is held by
	// a live or TIME_WAIT connection or a listener.
	ErrNoEphemeralPorts = errors.New("netstack: no free ephemeral port")
)

// StackProfile sets the per-packet processing costs that differentiate
// the Figure 8 targets: a native Linux stack, the dom0 stack, a Linux
// guest behind a vif, and a MirageOS unikernel (whose OCaml stack has a
// slightly higher mean and variance — "never more than 0.4ms" apart).
type StackProfile struct {
	Name string
	// ProcDelay is charged per received packet before protocol handling.
	ProcDelay sim.Duration
	// ProcJitter is the stddev of the processing delay.
	ProcJitter sim.Duration
	// PerByte is the copy+checksum cost per payload byte.
	PerByte sim.Duration
}

// Profiles used across the evaluation.
func LinuxNativeProfile() StackProfile {
	return StackProfile{Name: "linux-native", ProcDelay: 28 * time.Microsecond, ProcJitter: 3 * time.Microsecond, PerByte: 55 * time.Nanosecond}
}
func Dom0Profile() StackProfile {
	return StackProfile{Name: "dom0", ProcDelay: 40 * time.Microsecond, ProcJitter: 5 * time.Microsecond, PerByte: 60 * time.Nanosecond}
}
func LinuxGuestProfile() StackProfile {
	return StackProfile{Name: "linux-vm", ProcDelay: 70 * time.Microsecond, ProcJitter: 8 * time.Microsecond, PerByte: 75 * time.Nanosecond}
}
func MirageProfile() StackProfile {
	return StackProfile{Name: "mirage-vm", ProcDelay: 85 * time.Microsecond, ProcJitter: 22 * time.Microsecond, PerByte: 80 * time.Nanosecond}
}

// fourTuple keys established TCP connections.
type fourTuple struct {
	localIP, remoteIP     IP
	localPort, remotePort uint16
}

// DatagramHandler is a bound UDP port's application: the object that
// holds a query's or an agent's state, so binding it binds nothing.
// Datagram gets each payload as a view of its frame — to keep (with the
// frame's slab — netsim.Handler), never to write.
type DatagramHandler interface {
	Datagram(src IP, srcPort uint16, payload []byte)
}

// UDPHandler is a DatagramHandler as a func.
type UDPHandler func(src IP, srcPort uint16, payload []byte)

// Datagram implements DatagramHandler.
func (fn UDPHandler) Datagram(src IP, srcPort uint16, payload []byte) { fn(src, srcPort, payload) }

// Host is one IP endpoint: a NIC, an address, ARP, and the transport
// demultiplexers. All methods must be called from simulation events.
type Host struct {
	Eng     *sim.Engine
	Name    string
	NIC     *netsim.NIC
	IP      IP
	Profile StackProfile

	// aliases are extra local addresses (traffic accepted, ARP
	// answered): Synjitsu claims every idle service IP this way.
	aliases map[IP]bool
	// proxyARP addresses are answered at the ARP layer only — IP
	// traffic to them is dropped. This models dom0 answering ARP for
	// service IPs it does not itself serve.
	proxyARP map[IP]bool

	arpCache   map[IP]netsim.MAC
	arpPending map[IP][]pendingPacket
	udpPorts   map[uint16]DatagramHandler
	listeners  map[uint16]*TCPListener
	conns      map[fourTuple]*TCPConn
	// portUse counts, per ephemeral local port, the conns entries that
	// hold it, so ephemeralPort never walks the table. addConn and
	// dropConn are the only writers of either; the first entry with
	// such a port makes the map (most hosts never dial).
	portUse  map[uint16]int
	nextPort uint16
	icmpSeq  uint16
	pings    map[uint16]*pendingPing
	rxBusy   sim.Duration // receive-path serialisation point

	// Diagnostics.
	RxPackets, TxPackets uint64
	RxDropped            uint64
	// ARPRetries counts retransmitted ARP requests (lost broadcasts on
	// hostile links).
	ARPRetries uint64
	// TraceTCP, when set, observes every TCP segment the stack sends or
	// receives ("tx"/"rx") — a tcpdump for the simulation. The segment
	// and its payload are good for the call only.
	TraceTCP func(dir string, seg *TCPSegment)

	eth  Ethernet
	arp  ARPPacket
	ip4  IPv4Header
	icmp ICMPEcho
	udp  UDPHeader
	tcp  TCPSegment

	// scratch is the one buffer every outgoing frame is rendered into
	// (txFrame); rxFree pools the records rxFrame books; spareSnd holds
	// send buffers that finished connections gave back (releaseSndBuf).
	scratch  []byte
	rxFree   []*rxJob
	spareSnd [][]byte
}

// pendingPacket is a frame parked behind an ARP resolution: a private
// copy of the scratch frame, complete but for its Ethernet header.
type pendingPacket struct {
	frame []byte
	// wireBytes is the on-wire size the frame is charged for once ARP
	// resolves (0 = the frame's own length; larger for bulk stand-ins).
	wireBytes int
}

type pendingPing struct {
	sentAt sim.Duration
	cb     func(rtt sim.Duration, err error)
	timer  sim.Event
}

// NewHost binds a stack to a NIC. The NIC's receive handler is taken
// over by the stack.
func NewHost(eng *sim.Engine, name string, nic *netsim.NIC, ip IP, profile StackProfile) *Host {
	h := &Host{
		Eng: eng, Name: name, NIC: nic, IP: ip, Profile: profile,
		aliases:    make(map[IP]bool),
		proxyARP:   make(map[IP]bool),
		arpCache:   make(map[IP]netsim.MAC),
		arpPending: make(map[IP][]pendingPacket),
		udpPorts:   make(map[uint16]DatagramHandler),
		listeners:  make(map[uint16]*TCPListener),
		conns:      make(map[fourTuple]*TCPConn),
		pings:      make(map[uint16]*pendingPing),
		nextPort:   ephemeralBase,
	}
	nic.SetHandler(h.rxFrame)
	return h
}

// procCost samples the stack's processing cost for a packet of n bytes.
func (h *Host) procCost(n int) sim.Duration {
	d := sim.Normal{Mean: h.Profile.ProcDelay, Stddev: h.Profile.ProcJitter}.Sample(h.Eng.Rand())
	return d + sim.Duration(n)*h.Profile.PerByte
}

// rxFrame is the NIC receive path: charge the stack cost, then demux.
// Processing is serialised (rxBusy) so jittered per-packet costs can
// never reorder a flow — the stack is a single vCPU, not a packet pool.
// The frame is kept as it is: past its sender's copy it is immutable
// (netsim.Handler), and so are the payload slices handed up from it.
func (h *Host) rxFrame(frame []byte) {
	h.RxPackets++
	now := h.Eng.Now()
	if h.rxBusy < now {
		h.rxBusy = now
	}
	h.rxBusy += h.procCost(len(frame))
	var j *rxJob
	if k := len(h.rxFree); k > 0 {
		j = h.rxFree[k-1]
		h.rxFree = h.rxFree[:k-1]
	} else {
		j = &rxJob{host: h}
	}
	j.frame = frame
	h.Eng.AfterHandler(h.rxBusy-now, j)
}

// rxJob is one received frame waiting out the stack's processing cost.
// Jobs are pooled on the Host and each is its own event's sim.Handler,
// so the receive path schedules without allocating.
type rxJob struct {
	host  *Host
	frame []byte
}

func (j *rxJob) Fire() {
	h, frame := j.host, j.frame
	j.frame = nil
	h.rxFree = append(h.rxFree, j)
	h.handleFrame(frame)
	// On an idle host the decoders' views would keep a whole slab alive.
	h.eth.payload, h.ip4.payload, h.icmp.Data, h.udp.payload, h.tcp.payload = nil, nil, nil, nil, nil
}

func (h *Host) handleFrame(frame []byte) {
	if err := h.eth.DecodeFromBytes(frame); err != nil {
		h.RxDropped++
		return
	}
	if h.eth.Dst != h.NIC.Addr && !h.eth.Dst.IsBroadcast() {
		return // not for us
	}
	switch h.eth.EtherType {
	case EtherTypeARP:
		h.handleARP(h.eth.Payload())
	case EtherTypeIPv4:
		h.handleIPv4(h.eth.Payload())
	default:
		h.RxDropped++
	}
}

// ---- ARP ----

func (h *Host) handleARP(payload []byte) {
	if err := h.arp.DecodeFromBytes(payload); err != nil {
		h.RxDropped++
		return
	}
	a := &h.arp
	// Learn the sender either way.
	h.arpCache[a.SenderIP] = a.SenderMAC
	h.flushPending(a.SenderIP)
	if a.Op == ARPRequest && (h.HasIP(a.TargetIP) || h.proxyARP[a.TargetIP]) {
		h.sendARP(a.SenderMAC, &ARPPacket{
			Op: ARPReply, SenderMAC: h.NIC.Addr, SenderIP: a.TargetIP,
			TargetMAC: a.SenderMAC, TargetIP: a.SenderIP,
		})
	}
}

func (h *Host) flushPending(ip IP) {
	pend := h.arpPending[ip]
	if pend == nil {
		return
	}
	delete(h.arpPending, ip)
	mac := h.arpCache[ip]
	for _, p := range pend {
		h.sendEthernet(mac, EtherTypeIPv4, p.frame, p.wireBytes)
	}
}

// SeedARP preloads an ARP cache entry, modelling a client that resolved
// the address earlier (e.g. from a previous connection or because dom0
// proxy-answers ARP for service IPs).
func (h *Host) SeedARP(ip IP, mac netsim.MAC) { h.arpCache[ip] = mac }

// AddIPAlias makes the stack fully own an extra address: it answers ARP
// for it and accepts IP traffic to it. Synjitsu aliases every idle
// service IP so it can complete handshakes on their behalf.
func (h *Host) AddIPAlias(ip IP) { h.aliases[ip] = true }

// RemoveIPAlias releases an alias (e.g. when the real unikernel takes
// the address over).
func (h *Host) RemoveIPAlias(ip IP) { delete(h.aliases, ip) }

// HasIP reports whether ip is the primary address or an alias.
func (h *Host) HasIP(ip IP) bool { return ip == h.IP || h.aliases[ip] }

// AnnounceIP broadcasts a gratuitous ARP claiming ip at this stack's
// MAC. Used when an address moves: a booted unikernel taking over from
// Synjitsu, or the proxy re-claiming the IP of a reaped service so
// clients' caches stop pointing at the dead guest.
func (h *Host) AnnounceIP(ip IP) {
	h.sendARP(netsim.Broadcast, &ARPPacket{
		Op: ARPReply, SenderMAC: h.NIC.Addr, SenderIP: ip,
		TargetMAC: netsim.Broadcast, TargetIP: ip,
	})
}

// ProxyARPFor answers ARP for ip without accepting its IP traffic —
// packets sent to it reach our MAC and die, which is exactly the
// baseline (no-Synjitsu) behaviour whose SYN loss Figure 9a measures.
func (h *Host) ProxyARPFor(ip IP) { h.proxyARP[ip] = true }

// RemoveProxyARP stops answering for ip.
func (h *Host) RemoveProxyARP(ip IP) { delete(h.proxyARP, ip) }

// arpRetransmit spaces ARP requests (Linux-like: 1s apart, three in
// all; the queue drops a second after the last). Without the retries a
// single lost broadcast on a lossy link blackholes every packet to that
// address, which no transport-level retry can recover from.
var arpRetransmit = sim.Backoff{Initial: time.Second, Factor: 1, Retries: 2}

// txHeadroom is where the transport payload starts in an IPv4 frame.
const txHeadroom = EthernetHeaderLen + IPv4HeaderLen

// txFrame returns the host's scratch frame cut to n bytes. Every
// outgoing frame is rendered into it, innermost layer first, each
// header written in place in front of its payload; it is good until the
// next txFrame call. Nothing downstream may keep it: NIC.Send copies,
// and the ARP-pending queue and loopback take their own copy.
func (h *Host) txFrame(n int) []byte {
	if cap(h.scratch) < n {
		h.scratch = make([]byte, max(n, netsim.MaxFrame))
	}
	return h.scratch[:n]
}

// sendIPv4 routes one packet to dst, resolving via ARP. frame is the
// scratch frame with the transport payload already rendered at
// frame[txHeadroom:]; the IPv4 header goes in front of it here. src is
// explicit because proxied TCP connections answer from the service IP
// (an alias), not the stack's primary address. wireBytes above the
// frame's length charges the first hop for that many bytes (a bulk
// stand-in, netsim.NIC.SendBulk); 0 charges the frame itself.
func (h *Host) sendIPv4(src, dst IP, proto byte, frame []byte, wireBytes int) {
	pkt := frame[EthernetHeaderLen:]
	hdr := IPv4Header{Protocol: proto, Src: src, Dst: dst}
	hdr.EncodeInto(pkt)
	if h.HasIP(dst) {
		// Loopback: re-enter the stack after the processing cost, no wire.
		pkt = append([]byte(nil), pkt...)
		h.Eng.After(h.procCost(len(pkt)), func() { h.handleIPv4(pkt) })
		return
	}
	h.TxPackets++
	if mac, ok := h.arpCache[dst]; ok {
		h.sendEthernet(mac, EtherTypeIPv4, frame, wireBytes)
		return
	}
	// Queue a copy behind an ARP resolution: the request itself is
	// rendered into the scratch next.
	first := len(h.arpPending[dst]) == 0
	h.arpPending[dst] = append(h.arpPending[dst],
		pendingPacket{frame: append([]byte(nil), frame...), wireBytes: wireBytes})
	if first {
		h.sendARPRequest(dst, 0)
	}
}

// SendUDPBulk sends a UDP datagram that stands in for wireBytes bytes
// on the wire: the payload (a chunk header, typically) is what the
// receiver sees, but the first-hop link charges serialisation — and any
// throttle — for the full wireBytes (netsim.NIC.SendBulk). The bulk
// movers use it so checkpoint chunks occupy the shared management link
// for as long as their bytes would without one event per MTU frame.
func (h *Host) SendUDPBulk(dst IP, srcPort, dstPort uint16, payload []byte, wireBytes int) {
	frame := h.txFrame(txHeadroom + UDPHeaderLen + len(payload))
	u := UDPHeader{SrcPort: srcPort, DstPort: dstPort}
	u.EncodeInto(frame[txHeadroom:], h.IP, dst, payload)
	h.sendIPv4(h.IP, dst, ProtoUDP, frame, wireBytes)
}

// sendARPRequest broadcasts who-has for dst, retx requests in, and arms
// the retransmit: while no reply lands and packets are still queued,
// the request goes out again as arpRetransmit allows, then the queue
// drops (transport retransmission recovers).
func (h *Host) sendARPRequest(dst IP, retx int) {
	h.sendARP(netsim.Broadcast, &ARPPacket{Op: ARPRequest, SenderMAC: h.NIC.Addr, SenderIP: h.IP, TargetIP: dst})
	wait, more := arpRetransmit.Next(retx, nil)
	h.Eng.After(wait, func() {
		if _, ok := h.arpCache[dst]; ok {
			return
		}
		if len(h.arpPending[dst]) == 0 {
			return
		}
		if !more {
			delete(h.arpPending, dst)
			return
		}
		h.ARPRetries++
		h.sendARPRequest(dst, retx+1)
	})
}

// sendARP broadcasts or unicasts one ARP message.
func (h *Host) sendARP(dst netsim.MAC, pkt *ARPPacket) {
	frame := h.txFrame(EthernetHeaderLen + ARPLen)
	pkt.EncodeInto(frame[EthernetHeaderLen:])
	h.sendEthernet(dst, EtherTypeARP, frame, 0)
}

// sendEthernet writes the link header in front of the payload already
// in frame and transmits it; the NIC's copy is what travels. A frame
// longer than the MTU is dropped there, like any oversized send.
func (h *Host) sendEthernet(dst netsim.MAC, etherType uint16, frame []byte, wireBytes int) {
	eth := Ethernet{Dst: dst, Src: h.NIC.Addr, EtherType: etherType}
	eth.EncodeInto(frame)
	_ = h.NIC.SendBulk(frame, wireBytes)
}

// ---- IPv4 demux ----

func (h *Host) handleIPv4(packet []byte) {
	if err := h.ip4.DecodeFromBytes(packet); err != nil {
		h.RxDropped++
		return
	}
	if !h.HasIP(h.ip4.Dst) {
		h.RxDropped++
		return
	}
	src, dst, payload := h.ip4.Src, h.ip4.Dst, h.ip4.Payload()
	switch h.ip4.Protocol {
	case ProtoICMP:
		h.handleICMP(src, payload)
	case ProtoUDP:
		h.handleUDP(src, payload)
	case ProtoTCP:
		h.handleTCP(src, dst, payload)
	default:
		h.RxDropped++
	}
}

// ---- ICMP ----

func (h *Host) handleICMP(src IP, payload []byte) {
	if err := h.icmp.DecodeFromBytes(payload); err != nil {
		h.RxDropped++
		return
	}
	switch h.icmp.Type {
	case ICMPEchoRequest:
		reply := ICMPEcho{Type: ICMPEchoReply, ID: h.icmp.ID, Seq: h.icmp.Seq, Data: h.icmp.Data}
		h.sendICMP(src, &reply)
	case ICMPEchoReply:
		if p, ok := h.pings[h.icmp.Seq]; ok {
			delete(h.pings, h.icmp.Seq)
			h.Eng.Cancel(p.timer)
			p.cb(h.Eng.Now()-p.sentAt, nil)
		}
	}
}

// Ping sends an ICMP echo with payloadLen bytes of data and reports the
// RTT (Figure 8's workload).
func (h *Host) Ping(dst IP, payloadLen int, timeout sim.Duration, cb func(rtt sim.Duration, err error)) {
	h.icmpSeq++
	seq := h.icmpSeq
	data := make([]byte, payloadLen)
	for i := range data {
		data[i] = byte(i)
	}
	req := ICMPEcho{Type: ICMPEchoRequest, ID: 0x4a49, Seq: seq, Data: data}
	p := &pendingPing{sentAt: h.Eng.Now(), cb: cb}
	p.timer = h.Eng.After(timeout, func() {
		if _, ok := h.pings[seq]; ok {
			delete(h.pings, seq)
			cb(0, ErrTimeout)
		}
	})
	h.pings[seq] = p
	h.sendICMP(dst, &req)
}

func (h *Host) sendICMP(dst IP, m *ICMPEcho) {
	frame := h.txFrame(txHeadroom + icmpHeaderLen + len(m.Data))
	m.EncodeInto(frame[txHeadroom:])
	h.sendIPv4(h.IP, dst, ProtoICMP, frame, 0)
}

// ---- UDP ----

// BindDatagrams makes d the application of a UDP port: every datagram
// that arrives for it is handed to d.Datagram until UnbindUDP.
func (h *Host) BindDatagrams(port uint16, d DatagramHandler) error {
	if _, ok := h.udpPorts[port]; ok {
		return ErrPortInUse
	}
	h.udpPorts[port] = d
	return nil
}

// BindUDP registers a datagram callback on a port.
func (h *Host) BindUDP(port uint16, fn UDPHandler) error { return h.BindDatagrams(port, fn) }

// UnbindUDP releases a port.
func (h *Host) UnbindUDP(port uint16) { delete(h.udpPorts, port) }

// SendUDP transmits one datagram.
func (h *Host) SendUDP(dst IP, srcPort, dstPort uint16, payload []byte) {
	h.SendUDPBulk(dst, srcPort, dstPort, payload, 0)
}

func (h *Host) handleUDP(src IP, payload []byte) {
	if err := h.udp.DecodeFromBytes(payload, src, h.IP); err != nil {
		h.RxDropped++
		return
	}
	d, ok := h.udpPorts[h.udp.DstPort]
	if !ok {
		h.RxDropped++
		return
	}
	d.Datagram(src, h.udp.SrcPort, h.udp.Payload())
}

// ephemeralBase is the first client port (IANA's dynamic range).
const ephemeralBase = 49152

// addConn enters c in the demux table.
func (h *Host) addConn(c *TCPConn) {
	h.conns[c.key] = c
	if p := c.key.localPort; p >= ephemeralBase {
		if h.portUse == nil {
			h.portUse = make(map[uint16]int)
		}
		h.portUse[p]++
	}
}

// dropConn takes c out of the demux table, if it is still the entry for
// its tuple: a connection may be dropped twice (Forget, then a late
// teardown) and its port must be released once.
func (h *Host) dropConn(c *TCPConn) {
	if h.conns[c.key] != c {
		return
	}
	delete(h.conns, c.key)
	if p := c.key.localPort; p >= ephemeralBase {
		if h.portUse[p]--; h.portUse[p] == 0 {
			delete(h.portUse, p)
		}
	}
}

// Owes reports whether some connection still owes its peer bytes: sent
// data, a SYN or a FIN not yet acknowledged. Data queued behind a zero
// window does not count: no timer bounds that wait, so a peer that shut
// its window could hold the connection forever.
func (h *Host) Owes() bool {
	for _, c := range h.conns {
		if c.sndUna != c.sndNxt {
			return true
		}
	}
	return false
}

// ephemeralPort allocates a client port: the next one, round the range,
// that no listener is bound to and no live or TIME_WAIT connection
// holds. One lap without a free port is failure.
func (h *Host) ephemeralPort() (uint16, bool) {
	for lap := 0; lap < 1<<16-ephemeralBase; lap++ {
		h.nextPort++
		if h.nextPort < ephemeralBase {
			h.nextPort = ephemeralBase
		}
		p := h.nextPort
		if _, ok := h.listeners[p]; ok {
			continue
		}
		if h.portUse[p] == 0 {
			return p, true
		}
	}
	return 0, false
}

func (h *Host) String() string {
	return fmt.Sprintf("%s(%s)", h.Name, h.IP)
}
