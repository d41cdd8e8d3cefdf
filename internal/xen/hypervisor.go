package xen

import (
	"errors"
	"fmt"
	"time"

	"jitsu/internal/sim"
	"jitsu/internal/xenstore"
)

// DomID aliases the XenStore domain identifier so the two packages share
// one identity space, as on a real host.
type DomID = xenstore.DomID

// Dom0 is the privileged control domain.
const Dom0 = xenstore.Dom0

// Errors reported by the hypervisor layer.
var (
	ErrNoSuchDomain  = errors.New("xen: no such domain")
	ErrBadGrant      = errors.New("xen: bad grant reference")
	ErrBadChannel    = errors.New("xen: bad event channel")
	ErrOutOfMemory   = errors.New("xen: insufficient host memory")
	ErrAlreadyExists = errors.New("xen: domain name already exists")
)

// DomState is a domain's lifecycle state.
type DomState int

// Lifecycle states, in the order a successful boot passes through them.
const (
	StateBuilding DomState = iota
	StatePaused
	StateRunning
	StateShutdown
	StateDead
)

func (s DomState) String() string {
	switch s {
	case StateBuilding:
		return "building"
	case StatePaused:
		return "paused"
	case StateRunning:
		return "running"
	case StateShutdown:
		return "shutdown"
	default:
		return "dead"
	}
}

// GuestKind distinguishes the two guest flavours the paper compares.
type GuestKind int

// Guest kinds.
const (
	GuestUnikernel GuestKind = iota
	GuestLinux
)

// Domain is one virtual machine under the hypervisor's control.
type Domain struct {
	ID      DomID
	Name    string
	Kind    GuestKind
	MemMiB  int
	State   DomState
	Created sim.Duration // virtual time the domain finished building
}

// XSPath returns the domain's XenStore subtree root.
func (d *Domain) XSPath() string { return xenstore.DomainPath(d.ID) }

// PageSize is the granularity of grant mappings.
const PageSize = 4096

// Page is one grantable machine page.
type Page struct {
	Data  [PageSize]byte
	owner DomID
}

// GrantRef names an entry in the grant table.
type GrantRef uint32

// Hypervisor owns the domains, grant tables and event channels of one
// physical host. Everything runs on the host's simulation engine.
type Hypervisor struct {
	Eng      *sim.Engine
	Store    *xenstore.Store
	Platform *Platform

	TotalMemMiB int // host RAM available to guests
	usedMemMiB  int

	domains  map[DomID]*Domain
	nextDom  DomID
	grants   map[GrantRef]*Page
	nextRef  GrantRef
	channels map[ChannelID]*eventChannel
	nextChan ChannelID

	// cpuLoad counts concurrently executing control-plane jobs for the
	// processor-sharing contention factor.
	cpuLoad int
}

// NewHypervisor boots a host: dom0 exists, the store holds the standard
// tree, no guests yet.
func NewHypervisor(eng *sim.Engine, store *xenstore.Store, p *Platform, totalMemMiB int) *Hypervisor {
	h := &Hypervisor{
		Eng:         eng,
		Store:       store,
		Platform:    p,
		TotalMemMiB: totalMemMiB,
		domains:     make(map[DomID]*Domain),
		grants:      make(map[GrantRef]*Page),
		channels:    make(map[ChannelID]*eventChannel),
		nextDom:     1,
	}
	dom0 := &Domain{ID: Dom0, Name: "Domain-0", Kind: GuestLinux, MemMiB: 256, State: StateRunning}
	h.domains[Dom0] = dom0
	return h
}

// Domain returns a domain by id.
func (h *Hypervisor) Domain(id DomID) (*Domain, error) {
	d, ok := h.domains[id]
	if !ok {
		return nil, ErrNoSuchDomain
	}
	return d, nil
}

// DomainByName finds a live domain by name (nil if absent).
func (h *Hypervisor) DomainByName(name string) *Domain {
	for _, d := range h.domains {
		if d.Name == name && d.State != StateDead {
			return d
		}
	}
	return nil
}

// Domains returns the number of live domains including dom0.
func (h *Hypervisor) Domains() int { return len(h.domains) }

// FreeMemMiB reports unallocated guest memory.
func (h *Hypervisor) FreeMemMiB() int { return h.TotalMemMiB - h.usedMemMiB }

// allocDomain reserves the descriptor and memory; the toolstack drives
// the rest of construction.
func (h *Hypervisor) allocDomain(name string, kind GuestKind, memMiB int) (*Domain, error) {
	if h.DomainByName(name) != nil {
		return nil, ErrAlreadyExists
	}
	if memMiB > h.FreeMemMiB() {
		return nil, ErrOutOfMemory
	}
	id := h.nextDom
	h.nextDom++
	d := &Domain{ID: id, Name: name, Kind: kind, MemMiB: memMiB, State: StateBuilding}
	h.domains[id] = d
	h.usedMemMiB += memMiB
	return d, nil
}

// DestroyDomain tears a domain down immediately, releasing memory,
// grants and channels. The toolstack's Destroy adds the XenStore
// cleanup transaction on top.
func (h *Hypervisor) DestroyDomain(id DomID) error {
	d, ok := h.domains[id]
	if !ok || id == Dom0 {
		return ErrNoSuchDomain
	}
	d.State = StateDead
	delete(h.domains, id)
	h.usedMemMiB -= d.MemMiB
	for ref, pg := range h.grants {
		if pg.owner == id {
			delete(h.grants, ref)
		}
	}
	for cid, ch := range h.channels {
		if ch.a == id || ch.b == id {
			delete(h.channels, cid)
		}
	}
	return nil
}

// ---- grant tables (§2.3 / §3.2.1) ----

// Grant shares a fresh page owned by dom and returns its reference for a
// peer to map. The page outlives nothing: destroying the owner revokes it.
func (h *Hypervisor) Grant(dom DomID) (GrantRef, *Page) {
	h.nextRef++
	pg := &Page{owner: dom}
	h.grants[h.nextRef] = pg
	return h.nextRef, pg
}

// MapGrant maps a granted page. In a real hypervisor this checks the
// grantee; our simulation trusts the XenStore rendezvous to have shared
// the reference only with the intended peer.
func (h *Hypervisor) MapGrant(ref GrantRef) (*Page, error) {
	pg, ok := h.grants[ref]
	if !ok {
		return nil, ErrBadGrant
	}
	return pg, nil
}

// EndGrant revokes a grant reference.
func (h *Hypervisor) EndGrant(ref GrantRef) {
	delete(h.grants, ref)
}

// ---- event channels ----

// ChannelID names an inter-domain event channel.
type ChannelID uint32

// notifyLatency is the virtual-interrupt delivery cost: a hypercall plus
// an upcall into the peer.
const notifyLatency = 5 * time.Microsecond

type eventChannel struct {
	a, b           DomID
	handlerA       func()
	handlerB       func()
	pendingA       bool
	pendingB       bool
	closed         bool
	notifiesA      uint64
	notifiesB      uint64
	deliveredTotal uint64
}

// EventChannel is a bound inter-domain notification channel, the
// synchronisation half of a vchan.
type EventChannel struct {
	ID  ChannelID
	hyp *Hypervisor
	ec  *eventChannel
}

// BindEventChannel creates a channel between two domains.
func (h *Hypervisor) BindEventChannel(a, b DomID) *EventChannel {
	h.nextChan++
	ec := &eventChannel{a: a, b: b}
	h.channels[h.nextChan] = ec
	return &EventChannel{ID: h.nextChan, hyp: h, ec: ec}
}

// LookupEventChannel rebinds an existing channel id (the peer side,
// having learned the id via XenStore).
func (h *Hypervisor) LookupEventChannel(id ChannelID) (*EventChannel, error) {
	ec, ok := h.channels[id]
	if !ok {
		return nil, ErrBadChannel
	}
	return &EventChannel{ID: id, hyp: h, ec: ec}, nil
}

// SetHandler installs dom's upcall handler.
func (c *EventChannel) SetHandler(dom DomID, fn func()) error {
	switch dom {
	case c.ec.a:
		c.ec.handlerA = fn
	case c.ec.b:
		c.ec.handlerB = fn
	default:
		return ErrBadChannel
	}
	return nil
}

// Notify signals the peer of dom. Delivery is asynchronous (one virtual
// interrupt latency) and coalescing: multiple notifies before delivery
// collapse into one upcall, as real event channels do.
func (c *EventChannel) Notify(dom DomID) error {
	ec := c.ec
	if ec.closed {
		return ErrBadChannel
	}
	var pending *bool
	var handler *func()
	switch dom {
	case ec.a:
		pending, handler = &ec.pendingB, &ec.handlerB
		ec.notifiesA++
	case ec.b:
		pending, handler = &ec.pendingA, &ec.handlerA
		ec.notifiesB++
	default:
		return ErrBadChannel
	}
	if *pending {
		return nil
	}
	*pending = true
	c.hyp.Eng.After(notifyLatency, func() {
		*pending = false
		if ec.closed {
			return
		}
		if h := *handler; h != nil {
			ec.deliveredTotal++
			h()
		}
	})
	return nil
}

// Close tears the channel down; pending deliveries are dropped.
func (c *EventChannel) Close() {
	c.ec.closed = true
	delete(c.hyp.channels, c.ID)
}

// ---- CPU contention model ----

// cpuEnter/cpuExit bracket a control-plane job; factor scales costs by
// processor sharing when more jobs than cores are runnable.
func (h *Hypervisor) cpuEnter() { h.cpuLoad++ }
func (h *Hypervisor) cpuExit() {
	if h.cpuLoad > 0 {
		h.cpuLoad--
	}
}

// cpuFactor is the current processor-sharing slowdown.
func (h *Hypervisor) cpuFactor() float64 {
	if h.cpuLoad <= h.Platform.Cores {
		return 1
	}
	return float64(h.cpuLoad) / float64(h.Platform.Cores)
}

// charge scales a mean cost by jitter and CPU contention.
func (h *Hypervisor) charge(mean sim.Duration) sim.Duration {
	d := mean
	if h.Platform.Jitter > 0 && mean > 0 {
		d = sim.LogNormal{Median: mean, Sigma: h.Platform.Jitter}.Sample(h.Eng.Rand())
	}
	return sim.Duration(float64(d) * h.cpuFactor())
}

func (h *Hypervisor) String() string {
	return fmt.Sprintf("xen[%s doms=%d free=%dMiB]", h.Platform.Name, len(h.domains), h.FreeMemMiB())
}
