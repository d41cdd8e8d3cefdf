package conduit

import (
	"errors"
	"fmt"

	"jitsu/internal/xen"
	"jitsu/internal/xenstore"
)

// Rendezvous errors.
var (
	ErrNoSuchEndpoint = errors.New("conduit: no such named endpoint")
	ErrClosed         = errors.New("conduit: endpoint closed")
)

// Endpoint is one side of an established vchan: a bidirectional,
// flow-controlled byte stream over two grant-mapped rings and one event
// channel.
type Endpoint struct {
	// Local and Peer identify the two domains.
	Local, Peer xenstore.DomID
	// Name is the rendezvous name this channel was established under.
	Name string
	// Port is the per-connection name chosen by the client (Fig 5's
	// "conn1").
	Port string

	hyp     *xen.Hypervisor
	tx, rx  *ring
	channel *xen.EventChannel
	onData  func([]byte)
	pending []byte // writes waiting for ring space
	closed  bool

	// BytesIn/BytesOut count stream payload.
	BytesIn, BytesOut uint64
}

// OnData installs the receive callback and drains anything already in
// the ring.
func (e *Endpoint) OnData(fn func([]byte)) {
	e.onData = fn
	e.drainRx()
}

// Write queues data for the peer. It never blocks: bytes beyond the ring
// capacity wait in an unbounded local buffer and drain as the peer
// consumes (the simulation analogue of blocking writes).
func (e *Endpoint) Write(data []byte) error {
	if e.closed {
		return ErrClosed
	}
	e.BytesOut += uint64(len(data))
	e.pending = append(e.pending, data...)
	e.pump()
	return nil
}

// pump moves pending bytes into the tx ring and notifies the peer.
func (e *Endpoint) pump() {
	if len(e.pending) == 0 {
		return
	}
	n := e.tx.write(e.pending)
	if n > 0 {
		e.pending = e.pending[n:]
		_ = e.channel.Notify(e.Local)
	}
}

// drainRx delivers readable bytes to the app and credits the peer.
func (e *Endpoint) drainRx() {
	if e.onData == nil || e.closed {
		return
	}
	data := e.rx.read(-1)
	if len(data) == 0 {
		return
	}
	e.BytesIn += uint64(len(data))
	// Tell the peer there is ring space again (it may have writes parked).
	_ = e.channel.Notify(e.Local)
	e.onData(data)
}

// event is the upcall handler: new data to read and/or space to write,
// and possibly a peer-closed flag once the ring is drained.
func (e *Endpoint) event() {
	if e.closed {
		return
	}
	e.drainRx()
	e.pump()
	if e.rx.closedFlag() && e.rx.used() == 0 {
		e.closed = true // the peer closed, and all it sent has been read
	}
}

// Close tears the channel down. A closed flag in the shared page plus a
// final notification let the peer drain remaining bytes and then observe
// closure — no metadata service needed, true to the vchan protocol.
func (e *Endpoint) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.tx.setClosedFlag()
	_ = e.channel.Notify(e.Local)
}

// Registry is the rendezvous service: names under /conduit map to
// domains; the listen queue carries connection requests (Figure 5).
type Registry struct {
	hyp   *xen.Hypervisor
	store *xenstore.Store

	nextFlow int
	nextConn int
}

// NewRegistry builds the rendezvous layer over a hypervisor's store.
func NewRegistry(hyp *xen.Hypervisor) *Registry {
	return &Registry{hyp: hyp, store: hyp.Store}
}

// Listener is a registered named endpoint.
type Listener struct {
	reg    *Registry
	Name   string
	Dom    xenstore.DomID
	onConn func(*Endpoint)
}

// Register claims name for dom and watches its listen queue. The listen
// directory uses the §3.2.3 RestrictCreate extension so clients cannot
// observe or interfere with each other's connection attempts.
func (r *Registry) Register(dom xenstore.DomID, name string, onConn func(*Endpoint)) (*Listener, error) {
	st := r.store
	base := "/conduit/" + name
	if err := st.Write(dom, nil, base, fmt.Sprint(int(dom))); err != nil {
		return nil, err
	}
	for _, sub := range []string{"/listen", "/established"} {
		if err := st.Mkdir(dom, nil, base+sub); err != nil {
			return nil, err
		}
	}
	if err := st.SetPerms(dom, nil, base+"/listen", xenstore.Perms{
		Owner: dom, Others: xenstore.AccessWrite, RestrictCreate: true,
	}); err != nil {
		return nil, err
	}
	// The name itself and the established table are world-readable so
	// peers can resolve us, but only we may change them.
	for _, p := range []string{base, base + "/established"} {
		if err := st.SetPerms(dom, nil, p, xenstore.Perms{Owner: dom, Others: xenstore.AccessRead}); err != nil {
			return nil, err
		}
	}
	l := &Listener{reg: r, Name: name, Dom: dom, onConn: onConn}
	if _, err := st.WatchPath(dom, base+"/listen", "conduit-listen", func(path, _ string) {
		l.checkListen(path)
	}); err != nil {
		return nil, err
	}
	return l, nil
}

// checkListen inspects a listen-queue write and completes the server
// half of the rendezvous.
func (l *Listener) checkListen(path string) {
	st := l.reg.store
	base := "/conduit/" + l.Name + "/listen"
	if path == base || xenstore.ParentPath(path) != base {
		return // registration echo or a write below a connection key
	}
	port := xenstore.Basename(path)
	val, err := st.Read(l.Dom, nil, path)
	if err != nil || val == "" {
		return
	}
	// The connection request value carries the client's metadata:
	// "domid=<n> ring-tx=<ref> ring-rx=<ref> evtchn=<id>".
	var clientDom, ringTx, ringRx, evtchn int
	if _, err := fmt.Sscanf(val, "domid=%d ring-tx=%d ring-rx=%d evtchn=%d",
		&clientDom, &ringTx, &ringRx, &evtchn); err != nil {
		return
	}
	// Map the client's grants. Server tx = client rx and vice versa.
	pageTx, err1 := l.reg.hyp.MapGrant(xen.GrantRef(ringRx))
	pageRx, err2 := l.reg.hyp.MapGrant(xen.GrantRef(ringTx))
	ch, err3 := l.reg.hyp.LookupEventChannel(xen.ChannelID(evtchn))
	if err1 != nil || err2 != nil || err3 != nil {
		_ = st.Rm(l.Dom, nil, path)
		return
	}
	ep := &Endpoint{
		Local: l.Dom, Peer: xenstore.DomID(clientDom), Name: l.Name, Port: port,
		hyp: l.reg.hyp, tx: &ring{page: pageTx}, rx: &ring{page: pageRx}, channel: ch,
	}
	_ = ch.SetHandler(l.Dom, ep.event)

	// Record the established flow (Fig 5's /conduit/.../established and
	// /conduit/flows) in one transaction so management tools never see a
	// half-written flow.
	l.reg.nextFlow++
	flowID := l.reg.nextFlow
	tx := st.Begin(l.Dom)
	estPath := fmt.Sprintf("/conduit/%s/established/%s", l.Name, port)
	_ = st.Write(l.Dom, tx, estPath, fmt.Sprint(flowID))
	_ = st.Write(l.Dom, tx, fmt.Sprintf("/conduit/flows/%d", flowID),
		fmt.Sprintf("(established (name %s)(port %s)(client %d)(server %d))",
			l.Name, port, clientDom, int(l.Dom)))
	if err := tx.Commit(); err != nil {
		// A conflict here is harmless: flow metadata is advisory.
		_ = err
	}
	// Consume the listen entry.
	_ = st.Rm(l.Dom, nil, path)
	l.onConn(ep)
}

// Connect resolves name and establishes a vchan to its owner. The
// returned endpoint is live immediately; the server's onConn fires after
// its watch event.
func (r *Registry) Connect(dom xenstore.DomID, name string) (*Endpoint, error) {
	st := r.store
	base := "/conduit/" + name
	serverDom, err := r.Resolve(dom, name)
	if err != nil {
		return nil, err
	}
	// Client allocates the shared pages and the event channel.
	refTx, pageTx := r.hyp.Grant(dom)
	refRx, pageRx := r.hyp.Grant(dom)
	ch := r.hyp.BindEventChannel(dom, serverDom)
	ep := &Endpoint{
		Local: dom, Peer: serverDom, Name: name,
		hyp: r.hyp, tx: &ring{page: pageTx}, rx: &ring{page: pageRx}, channel: ch,
	}
	_ = ch.SetHandler(dom, ep.event)
	r.nextConn++
	port := fmt.Sprintf("conn%d", r.nextConn)
	ep.Port = port
	// Publish the request in the listen queue; the RestrictCreate perms
	// make it visible only to us and the server.
	req := fmt.Sprintf("domid=%d ring-tx=%d ring-rx=%d evtchn=%d",
		int(dom), int(refTx), int(refRx), int(ch.ID))
	if err := st.Write(dom, nil, base+"/listen/"+port, req); err != nil {
		ch.Close()
		r.hyp.EndGrant(refTx)
		r.hyp.EndGrant(refRx)
		return nil, err
	}
	return ep, nil
}

// Resolve returns the domain owning a conduit name, or an error — the
// "rendezvous facility for VMs to discover named peers".
func (r *Registry) Resolve(dom xenstore.DomID, name string) (xenstore.DomID, error) {
	val, err := r.store.Read(dom, nil, "/conduit/"+name)
	if err != nil {
		return 0, ErrNoSuchEndpoint
	}
	var d int
	if _, err := fmt.Sscanf(val, "%d", &d); err != nil {
		return 0, ErrNoSuchEndpoint
	}
	return xenstore.DomID(d), nil
}
