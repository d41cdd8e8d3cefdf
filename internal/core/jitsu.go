package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"jitsu/internal/dns"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
)

// ErrNoSuchService is returned for lookups of unregistered names.
var ErrNoSuchService = errors.New("core: no such service")

// ErrNoMemory is returned when a board cannot fit a service's image —
// the condition §3.3.2 surfaces to clients as a DNS SERVFAIL.
var ErrNoMemory = errors.New("core: insufficient memory for image")

// ErrNoDisk is returned for demotions on a board without a block
// device.
var ErrNoDisk = errors.New("core: board has no disk")

// ErrDiskFull is returned when the board's checkpoint store cannot fit
// another checkpoint — callers fall back to full eviction.
var ErrDiskFull = errors.New("core: disk checkpoint store full")

// ErrNotBooted is returned for demotions of a service without a live
// VM.
var ErrNotBooted = errors.New("core: service not booted")

// ErrNotOnDisk is returned for promotions of a service that has no
// disk-resident checkpoint.
var ErrNotOnDisk = errors.New("core: service not checkpointed to disk")

// ServiceState is the typed replica lifecycle: which tier a service
// occupies. The activation machine is the only writer; every internal
// call site branches on the enum (via the tier helpers below), never on
// counters.
type ServiceState int

// The service lifecycle. A replica moves
// running ↔ warm-in-memory → cold-on-disk → cold, with Launching the
// transient between a launch leg (boot, restore, disk restore) and its
// completion.
const (
	// StateCold: no VM, no checkpoint; traffic triggers a full boot.
	StateCold ServiceState = iota
	// StateLaunching: domain building / guest booting or restoring.
	StateLaunching
	// StateRunning: unikernel booted and serving client-driven traffic.
	StateRunning
	// StateWarmMemory: unikernel booted and memory-resident, but the
	// last launch was speculative (prewarm, warm pool, migration) and no
	// client has hit it yet. A client-driven firing promotes it to
	// Running without any launch cost — the warm hit.
	StateWarmMemory
	// StateColdDisk: no VM; the replica's state is checkpointed on the
	// board's block device. Traffic triggers a disk restore — priced
	// between a warm restore and a full boot.
	StateColdDisk
)

var stateNames = [...]string{"cold", "launching", "running", "warm-memory", "cold-disk"}

func (s ServiceState) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return "invalid"
	}
	return stateNames[s]
}

// Booted reports whether the replica has a live VM (Running or
// WarmMemory) — the "can serve traffic right now" predicate.
func (s ServiceState) Booted() bool {
	return s == StateRunning || s == StateWarmMemory
}

// NeedsLaunch reports whether a firing must start a launch leg to serve
// (Cold: full boot; ColdDisk: disk restore).
func (s ServiceState) NeedsLaunch() bool {
	return s == StateCold || s == StateColdDisk
}

// Resident reports whether the replica occupies board resources: memory
// (Booted or Launching) or disk slots (ColdDisk). Only a fully cold
// service is non-resident.
func (s ServiceState) Resident() bool { return s != StateCold }

// ServiceConfig maps a DNS name to a unikernel, IP, protocol and port —
// §3.3.2: "the Jitsu services are statically configured ... to map
// their unikernel with an IP address, protocol and port."
type ServiceConfig struct {
	Name  string // FQDN, e.g. alice.family.name
	IP    netstack.IP
	Port  uint16
	Image unikernel.Image
	// TTL for the DNS answer.
	TTL uint32
	// IdleTimeout stops the VM after this much inactivity; 0 = never.
	IdleTimeout sim.Duration
	// StateMiB is the live guest state a checkpoint captures — dirty
	// heap plus device state, NOT the boot image. Checkpoint copies and
	// disk slots are sized by this; 0 defaults to a quarter of the image
	// memory (minimum 1 MiB) at registration.
	StateMiB int
}

// StateSizeMiB resolves the effective checkpoint size: StateMiB when
// set, else a quarter of the image memory (minimum 1 MiB). Live state
// is the dirty working set, not the boot image — a unikernel's heap
// runs a fraction of its memory reservation.
func (cfg ServiceConfig) StateSizeMiB() int {
	if cfg.StateMiB > 0 {
		return cfg.StateMiB
	}
	s := cfg.Image.MemMiB / 4
	if s < 1 {
		s = 1
	}
	return s
}

// Service is a registered service and its live state.
type Service struct {
	Cfg   ServiceConfig
	State ServiceState
	Guest *unikernel.Guest

	lastActivity sim.Duration
	// waiters hear how the launch in flight ends: the firing that
	// started it, the firings that joined it, delayed-DNS responders.
	waiters []func(error)
	// conns are the connections Synjitsu parked while the service was
	// stopped, until a launch hands them off; refires counts the
	// firings failed launches owed them, the next booked in refire.
	conns   []*netstack.TCPConn
	refires int
	refire  sim.Event
	// dying: the previous VM's destroy is in flight, and joined lists
	// the launch legs waiting for it.
	dying  bool
	joined []*launchLeg
	// retired marks a deregistered service: an in-flight boot must tear
	// its guest down on completion instead of resurrecting the entry.
	retired bool
	// bootSpan is the in-flight boot/restore span on the board's tracer
	// (zero when tracing is off or no launch is in flight).
	bootSpan obs.Span

	// answerRR is the service's pre-built DNS answer: the positive
	// response never varies per query, so the hot path reuses it (and
	// the DNS server caches its wire encoding) instead of rebuilding it.
	answerRR dns.RR
	// okLine is the pre-rendered jitsud-protocol success line,
	// "ok <ip>\n", so resolveLine does not fmt.Sprintf per hit.
	okLine string

	// launchTarget is the tier an in-flight launch completes into:
	// Running for a client-driven launch, WarmMemory for a speculative
	// one. A client-driven firing that joins an in-flight speculative
	// launch upgrades it.
	launchTarget ServiceState
	// disk is the replica's disk-resident checkpoint (ColdDisk tier);
	// nil otherwise.
	disk *diskCheckpoint

	Counters
}

// Counters is one service's lifecycle accounting: what a Service keeps,
// a cluster sums over replicas and a Stats row carries.
type Counters struct {
	Launches     uint64
	ColdStarts   uint64 // requests that triggered a full boot
	Handoffs     uint64 // connections handed over from Synjitsu
	ServFails    uint64
	Reaps        uint64
	Restores     uint64 // launches that replayed a migration checkpoint
	DiskRestores uint64 // launches that paged a checkpoint in from disk
	Demotions    uint64 // checkpoint-to-disk evictions of a booted VM
}

// CounterNames labels the counters, in Values order.
var CounterNames = [...]string{"launches", "coldstarts", "handoffs", "servfails", "reaps", "restores", "disk-restores", "demotions"}

// Values lists the counters in declaration order.
func (c Counters) Values() [len(CounterNames)]uint64 {
	return [...]uint64{c.Launches, c.ColdStarts, c.Handoffs, c.ServFails, c.Reaps, c.Restores, c.DiskRestores, c.Demotions}
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Launches += o.Launches
	c.ColdStarts += o.ColdStarts
	c.Handoffs += o.Handoffs
	c.ServFails += o.ServFails
	c.Reaps += o.Reaps
	c.Restores += o.Restores
	c.DiskRestores += o.DiskRestores
	c.Demotions += o.Demotions
}

// diskCheckpoint is a checkpoint parked on the board's block device:
// the captured state plus the slots it occupies.
type diskCheckpoint struct {
	cp    Checkpoint
	slots []int
}

// LastActivity is the virtual time of the service's most recent
// client-driven touch — the recency key LRU demotion orders on.
func (s *Service) LastActivity() sim.Duration { return s.lastActivity }

// sumCounters totals one per-service counter across the directory —
// the registry's snapshot-time mirror of activation accounting.
func (j *Jitsu) sumCounters(get func(*Service) uint64) uint64 {
	var n uint64
	for _, svc := range j.ordered {
		n += get(svc)
	}
	return n
}

// Jitsu is the directory service: "the Xen equivalent of the venerable
// inetd service on Unix, but instead of starting a process in response
// to incoming traffic, it starts a unikernel". Signal handling lives in
// the activation frontends (trigger.go); the lifecycle lives in the
// Activation machine (activation.go); Jitsu itself is the directory
// plus the typed control-plane verbs the api package exposes.
//
// The directory is held twice: services answers a lookup by name, ordered
// holds exactly the same entries sorted by name, so a registry snapshot,
// Stats and the demotion planner walk a slice in an order that needs no
// sorting. Register and Deregister alone write either.
type Jitsu struct {
	board    *Board
	act      *Activation
	services map[string]*Service
	ordered  []*Service
}

// find is the position of name in ordered, or where it would go.
func (j *Jitsu) find(name string) (int, bool) {
	return slices.BinarySearchFunc(j.ordered, name, func(s *Service, name string) int { return strings.Compare(s.Cfg.Name, name) })
}

func newJitsu(b *Board) *Jitsu {
	j := &Jitsu{board: b, services: make(map[string]*Service)}
	j.act = newActivation(j)
	// The built-in frontends (trigger.go), wired once.
	if b.Cfg.delayDNSUntilReady {
		b.DNS.InterceptAsync = j.interceptDelayed
	} else {
		b.DNS.Intercept = j.interceptDNS
	}
	j.serveConduit(b.Registry)
	if b.Syn != nil {
		b.Syn.trigger = &synTrigger{j: j}
		if b.Cfg.synLaunchRate > 0 {
			b.Syn.trigger.buckets = make(map[*Service]*tokenBucket)
		}
	}
	return j
}

// Activation exposes the board's shared activation state machine (the
// seam every frontend fires).
func (j *Jitsu) Activation() *Activation { return j.act }

// FreeMemMiB is free guest memory as admission reads it: less what disk restores were promised.
func (j *Jitsu) FreeMemMiB() int { return j.board.Hyp.FreeMemMiB() - j.act.reading }

// Summon fires the activation machine for svc on behalf of a trigger
// frontend — the single entry point behind the DNS, SYN, conduit,
// cluster and prewarm paths.
func (j *Jitsu) Summon(svc *Service, s Summon) Decision { return j.act.Fire(svc, s) }

// Register adds a service to the directory. The VM is not started —
// that is the whole point.
func (j *Jitsu) Register(cfg ServiceConfig) *Service {
	name := dns.CanonicalName(cfg.Name)
	cfg.Name = name
	if cfg.TTL == 0 {
		cfg.TTL = 10
	}
	cfg.StateMiB = cfg.StateSizeMiB()
	svc := &Service{Cfg: cfg, State: StateCold}
	svc.answerRR = dns.RR{
		Name: cfg.Name, Type: dns.TypeA, Class: dns.ClassIN,
		TTL: cfg.TTL, A: cfg.IP,
	}
	svc.okLine = fmt.Sprintf("ok %s\n", cfg.IP)
	j.services[name] = svc
	i, held := j.find(name)
	if !held {
		j.ordered = slices.Insert(j.ordered, i, nil)
	}
	j.ordered[i] = svc // a same-name registration replaces the entry
	j.act.claimIdleIP(svc)
	// A new registration changes what queries resolve to.
	j.board.DNS.BumpEpoch()
	return svc
}

// Service looks a service up by name.
func (j *Jitsu) Service(name string) (*Service, error) {
	svc, ok := j.services[dns.CanonicalName(name)]
	if !ok {
		return nil, ErrNoSuchService
	}
	return svc, nil
}

// Services returns the registered services in name order: the
// directory's own slice, read in place. The caller must not modify it,
// and a Register or Deregister invalidates it.
func (j *Jitsu) Services() []*Service { return j.ordered }

// TriggerControl is the Summon.Via name for control-plane firings
// (Jitsu.Activate, api.ControlPlane.Activate, warm-pool prewarms).
const TriggerControl = "control"

// Activate is the control-plane summon used by a cluster scheduler (and
// the warm-pool manager): touch the service and launch it if stopped.
// coldStart distinguishes a client-driven launch (counted in ColdStarts)
// from a speculative prewarm. Returns ErrNoMemory — without counting a
// ServFail, that is the caller's policy decision — when the image does
// not fit. onReady may be nil.
func (j *Jitsu) Activate(svc *Service, coldStart bool, onReady func(error)) error {
	switch j.act.Fire(svc, Summon{Via: TriggerControl, ColdStart: coldStart, OnReady: onReady}) {
	case DecisionRetired:
		return ErrNoSuchService
	case DecisionNoMemory:
		return ErrNoMemory
	}
	return nil
}

// Touch records client-driven activity served without firing the board
// machine — the cluster scheduler's warm-hit fast path answers from the
// directory alone. It bumps the LRU clock (so demotion sees the
// replica as hot) and takes WarmMemory to Running, the same promotion a
// client-driven Fire applies.
func (j *Jitsu) Touch(svc *Service) {
	j.act.touch(svc)
	if svc.State == StateWarmMemory {
		j.act.setState(svc, StateRunning)
	}
}

// Checkpoint is the state captured from a booted replica for live
// migration or demotion: the image to rebuild the domain from plus the
// live guest state that must be copied (or written to disk).
type Checkpoint struct {
	Image unikernel.Image
	// StateMiB is the dirty guest state the transfer has to move —
	// ServiceConfig.StateMiB, not the boot image size.
	StateMiB int
}

// Checkpoint captures a service's state for live migration. A booted
// replica is captured live (the source keeps serving, pre-copy style);
// a disk-resident replica returns its stored checkpoint without paging
// anything in. ok is false for every other tier.
func (j *Jitsu) Checkpoint(svc *Service) (*Checkpoint, bool) {
	if svc.State == StateColdDisk {
		cp := svc.disk.cp
		return &cp, true
	}
	if !svc.State.Booted() {
		return nil, false
	}
	return &Checkpoint{Image: svc.Cfg.Image, StateMiB: svc.Cfg.StateMiB}, true
}

// Restore is Activate for a migrated-in replica: the domain is rebuilt
// from the checkpoint and the guest resumes instead of cold-booting, so
// readiness arrives at a fraction of the usual boot latency. Counted in
// Restores, not ColdStarts.
func (j *Jitsu) Restore(svc *Service, cp *Checkpoint, onReady func(error)) error {
	return j.act.restore(svc, cp, onReady)
}

// Deregister removes a service from this board's directory: the VM (if
// any) is destroyed, the IP leaves proxy control, and the DNS state
// epoch moves so no cached answer survives. Used when a board leaves the
// cluster and its replica slots are retired. Reports whether the name
// was registered here.
func (j *Jitsu) Deregister(svc *Service) bool {
	name := svc.Cfg.Name
	if j.services[name] != svc {
		return false
	}
	svc.retired = true
	if svc.State.Booted() {
		j.act.stopNow(svc) // re-claims the IP; released just below
	}
	j.act.dropDiskCheckpoint(svc)
	j.act.settle(svc, ErrNoSuchService) // waiters hear it, parked clients are reset
	j.act.releaseIdleIP(svc)
	delete(j.services, name)
	i, _ := j.find(name)
	j.ordered = slices.Delete(j.ordered, i, i+1)
	// The SYN trigger's admission state is keyed by service: drop the
	// retired entry so churny directories don't accumulate buckets.
	if syn := j.board.Syn; syn != nil {
		delete(syn.trigger.buckets, svc)
	}
	j.board.DNS.BumpEpoch()
	return true
}

// Evict is the full eviction: a booted replica's VM is destroyed (its
// warm state discarded), a disk-resident replica's checkpoint slots are
// freed. The service returns to Cold either way. It reports whether
// anything was actually evicted — false for Cold and Launching
// replicas. A forced teardown (the operator's verb, a migration's
// drain); reclaimers go through Reclaim.
func (j *Jitsu) Evict(svc *Service) bool {
	switch {
	case svc.State.Booted():
		j.act.stopNow(svc)
		return true
	case svc.State == StateColdDisk:
		j.act.dropDiskCheckpoint(svc)
		j.act.setState(svc, StateCold)
		return true
	}
	return false
}

// Demote checkpoints a booted replica to the board's block device and
// destroys its VM: warm-in-memory → cold-on-disk. The freed memory is
// the point of the exercise — a later activation restores from disk at
// a fraction of the full boot cost. Returns ErrNotBooted for replicas
// without a live VM (including one whose launch is still in flight),
// ErrNoDisk on a diskless board, and ErrDiskFull when the checkpoint
// store cannot take another replica.
func (j *Jitsu) Demote(svc *Service) error { return j.act.demote(svc) }

// Reclaim takes a booted replica's memory back for a reclaimer (the
// warm-pool shrink, preemption) if the reclaim rule allows it: demoted
// where the board's disk takes the checkpoint, evicted otherwise (a
// launch that needs the memory names it in Summon.After). It reports
// whether the replica was reclaimed, and whether it was demoted.
func (j *Jitsu) Reclaim(svc *Service) (reclaimed, demoted bool) {
	if !reclaimable(svc) {
		return false, false
	}
	if err := j.act.demote(svc); err == nil {
		return true, true
	}
	j.act.stopNow(svc) // no disk, or no room on it
	return true, false
}

// Promote pages a disk-resident replica back into memory:
// cold-on-disk → warm-in-memory (disk read, then a restore-priced
// launch). onReady (may be nil) fires when the unikernel serves.
// Returns ErrNotOnDisk unless the service is ColdDisk and ErrNoMemory
// when the image does not fit in RAM.
func (j *Jitsu) Promote(svc *Service, onReady func(error)) error {
	return j.act.promote(svc, StateWarmMemory, onReady)
}

// AdoptCheckpoint parks an incoming checkpoint (a migration or
// federation handoff) directly on this board's disk without booting it:
// cold → cold-on-disk. The replica serves later activations via the
// disk-restore path. Returns ErrNoDisk / ErrDiskFull like Demote, and
// an error for replicas that are not Cold.
func (j *Jitsu) AdoptCheckpoint(svc *Service, cp *Checkpoint) error {
	return j.act.adoptCheckpoint(svc, cp)
}
