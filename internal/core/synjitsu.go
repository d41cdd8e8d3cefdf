package core

import (
	"fmt"
	"strconv"
	"time"

	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/xenstore"
)

// Synjitsu is the connection proxy of §3.3.1: it aliases every idle
// service IP, completes TCP handshakes on their behalf ("built using
// the same OCaml TCP stack as the booting unikernel" — here, the same
// Go netstack), buffers client payload, records embryonic connections
// in the conduit XenStore tree (Figure 7), and hands the TCBs to the
// unikernel with a two-phase commit once it boots.
type Synjitsu struct {
	Host  *netstack.Host
	board *Board

	// byIP maps claimed service addresses to their services.
	byIP      map[netstack.IP]*Service
	listeners map[uint16]bool
	// trigger is the SYN activation frontend (set by newJitsu); the
	// proxy owns the handshake, the trigger owns the launch decision.
	trigger *synTrigger

	// Proxied counts handshakes completed on behalf of booting VMs.
	Proxied uint64
	// HandedOff counts TCBs transferred to unikernels.
	HandedOff uint64
	// SYNTriggeredLaunches counts launches caused by raw SYNs arriving
	// outside any DNS resolution (clients ignoring TTLs, §3.3).
	SYNTriggeredLaunches uint64
	// SYNSuppressed counts launches the per-service admission token
	// bucket denied (WithSYNRateLimit): the handshake still completes
	// and the connection waits, but the flood cannot force a reboot.
	SYNSuppressed uint64
}

func newSynjitsu(b *Board, ip netstack.IP) *Synjitsu {
	nic := netsim.NewNIC(b.Eng, "synjitsu", netsim.MACFor(0xFF0002))
	b.Bridge.ConnectNIC(nic, 20*time.Microsecond, 0)
	s := &Synjitsu{
		board:     b,
		byIP:      make(map[netstack.IP]*Service),
		listeners: make(map[uint16]bool),
	}
	s.Host = netstack.NewHost(b.Eng, "synjitsu", nic, ip, netstack.MirageProfile())
	return s
}

// claim takes over an idle service address. The gratuitous ARP matters
// on re-claims: clients still hold the reaped guest's MAC and would
// otherwise send their SYNs into the void.
func (s *Synjitsu) claim(svc *Service) {
	s.byIP[svc.Cfg.IP] = svc
	s.Host.AddIPAlias(svc.Cfg.IP)
	s.ensureListener(svc.Cfg.Port)
	s.Host.AnnounceIP(svc.Cfg.IP)
}

// release returns an address to its unikernel, handing over any
// embryonic connections.
func (s *Synjitsu) release(svc *Service) {
	s.Host.RemoveIPAlias(svc.Cfg.IP)
	delete(s.byIP, svc.Cfg.IP)
	s.handoff(svc)
}

func (s *Synjitsu) ensureListener(port uint16) {
	if s.listeners[port] {
		return
	}
	s.listeners[port] = true
	_, err := s.Host.ListenTCP(port, s.accept)
	if err != nil {
		panic(fmt.Sprintf("core: synjitsu listen %d: %v", port, err))
	}
}

// accept handles a completed proxy handshake. The connection gets no
// application on purpose: payload accumulates in the stack's pending
// buffer and travels inside the exported TCB.
func (s *Synjitsu) accept(c *netstack.TCPConn) {
	ip, _ := c.LocalAddr()
	svc, ok := s.byIP[ip]
	if !ok {
		// Address not (or no longer) proxied: refuse.
		c.Abort()
		return
	}
	s.Proxied++
	svc.conns = append(svc.conns, c)
	s.recordEmbryonic(svc, c)
	// A SYN with no preceding DNS query still summons the service: the
	// trigger fires the shared Activation machine (which also refreshes
	// the idle timer for warm connections).
	switch s.trigger.fire(svc) {
	case synLaunched:
		s.SYNTriggeredLaunches++
	case synSuppressed:
		s.SYNSuppressed++
	}
}

// recordEmbryonic writes the Figure 7 XenStore entry for a proxied
// connection.
func (s *Synjitsu) recordEmbryonic(svc *Service, c *netstack.TCPConn) {
	tcb, err := c.ExportTCB()
	if err != nil {
		return
	}
	idx := len(svc.conns)
	path := "/conduit/" + xsName(svc) + "/tcpv4/" + strconv.Itoa(idx)
	_ = s.board.Store.Write(xenstore.Dom0, nil, path, tcb.Encode())
}

// handoff transfers all embryonic connections for svc to its booted
// unikernel. The ordering gives the §3.3.1 guarantee that "only one of
// synjitsu or the unikernel ever replies to a packet":
//
//  1. the proxy exports and forgets each connection (it stops answering);
//  2. the commit flag flips in XenStore (two-phase commit);
//  3. the unikernel imports the TCBs and replays buffered data to the
//     app — all within one simulation event, so no packet interleaves.
func (s *Synjitsu) handoff(svc *Service) {
	pending := svc.conns
	svc.conns = nil
	st := s.board.Store
	base := "/conduit/" + xsName(svc) + "/tcpv4"

	// Phase 1: freeze the proxy side and (re)write final TCB state, as
	// one record set: the guest removes it whole once it has read it.
	tcbs := make([]xenstore.Record, 0, len(pending))
	for _, c := range pending {
		tcb, err := c.ExportTCB()
		c.Forget()
		if err != nil {
			continue // connection died (RST/timeout) before boot finished
		}
		tcbs = append(tcbs, xenstore.Record{Key: strconv.Itoa(len(tcbs) + 1), Value: tcb.Encode()})
	}
	tx := st.Begin(xenstore.Dom0)
	_ = st.Rm(xenstore.Dom0, tx, base)
	_ = st.WriteRecords(xenstore.Dom0, tx, base+"/", tcbs)
	// Phase 2: the commit flag, a write of its own: it outlives the
	// entries. After it the unikernel owns every recorded connection.
	_ = st.Write(xenstore.Dom0, tx, "/conduit/"+xsName(svc)+"/handoff", "committed")
	if err := tx.Commit(); err != nil {
		// Single-writer tree: a conflict here means a bug, not a race.
		panic(fmt.Sprintf("core: handoff commit: %v", err))
	}

	// Unikernel side: read the TCBs back from the store (exactly what
	// the real MirageOS guest does) and resurrect the connections.
	guest := svc.Guest
	if guest == nil {
		return
	}
	names, err := st.List(xenstore.Dom0, nil, base)
	if err != nil {
		return
	}
	for _, n := range names {
		raw, err := st.Read(xenstore.Dom0, nil, base+"/"+n)
		if err != nil {
			continue
		}
		tcb, err := netstack.ParseTCB(raw)
		if err != nil {
			continue
		}
		conn, err := guest.Stack.ImportTCB(tcb)
		if err != nil {
			continue
		}
		s.HandedOff++
		svc.Handoffs++
		if acceptor, ok := guest.Image.App.(interface {
			AcceptImported(*netstack.TCPConn)
		}); ok {
			acceptor.AcceptImported(conn)
		} else {
			conn.Abort()
		}
	}
	_ = st.Rm(xenstore.Dom0, nil, base)
}

// xsName is the service's XenStore component name. DNS names are valid
// XenStore components as-is ('.' is in the allowed character set).
func xsName(svc *Service) string { return svc.Cfg.Name }
