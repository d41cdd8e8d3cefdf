package core

import (
	"errors"
	"sort"
	"time"

	"jitsu/internal/obs"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
)

// This file is the single activation state machine every trigger
// frontend drives: the paper's insight is that *any* inbound signal — a
// DNS query, a buffered TCP SYN, a toolkit resolve call — can summon a
// unikernel just in time. The frontends (trigger.go) resolve their
// target and call Fire; the claim-IP → launch → settle → reap
// lifecycle, and every wait in it, lives here.

// Summon describes one trigger firing: who fired, how the launch and
// any refusal should be accounted, and what to do when the unikernel
// serves.
type Summon struct {
	// Via names the trigger frontend for per-trigger accounting
	// (Activation.Fired). Empty firings are counted under "direct".
	Via string
	// ColdStart marks a client-driven firing: a launch it causes counts
	// in the service's ColdStarts. Speculative firings (prewarm, pool
	// manager) leave the counter alone.
	ColdStart bool
	// Refuse marks a firing whose caller surfaces out-of-memory to the
	// client (a DNS SERVFAIL, a conduit "servfail" line): the refusal
	// counts in the service's ServFails. Control-plane callers leave it
	// false and apply their own policy.
	Refuse bool
	// OnReady (may be nil) fires once the unikernel serves, or with the
	// launch error if it does not.
	OnReady func(error)
	// After names a replica on this board just reclaimed to make room (a
	// preemption): admission counts its memory, and the launch joins its
	// destroy.
	After *Service
}

// Decision is the activation machine's answer to a trigger firing.
type Decision int

// Decisions.
const (
	// DecisionServe: the service is ready, or a launch is already in
	// flight — answer the client now ("returning a DNS response as soon
	// as the VM resource allocation is complete").
	DecisionServe Decision = iota
	// DecisionColdStart: DecisionServe, and this firing started the
	// launch.
	DecisionColdStart
	// DecisionNoMemory: the image does not fit — §3.3.2's resource
	// exhaustion, surfaced to clients as SERVFAIL.
	DecisionNoMemory
	// DecisionRetired: the service was deregistered; treat as unknown.
	DecisionRetired
)

var decisionNames = [...]string{"serve", "cold-start", "no-memory", "retired"}

func (d Decision) String() string { return decisionNames[d] }

// Served reports whether the firing should be answered positively (the
// service is usable now or will be momentarily).
func (d Decision) Served() bool {
	return d == DecisionServe || d == DecisionColdStart
}

// Activation owns the service lifecycle on one board: admission (does
// the image fit), the launch/restore state machine, the idle-IP claim
// handed between proxy and unikernel, every wait on a launch, and the
// idle reaper. Triggers fire it; it never looks at wire formats.
type Activation struct {
	j *Jitsu
	// Fired counts firings per trigger name (Summon.Via): read-only
	// outside this file.
	Fired map[string]uint64
	// observers see every firing after its decision (predictive
	// triggers learn arrival patterns here). Empty on a stock board, so
	// the zero-allocation DNS fast path pays one nil check.
	observers []func(svc *Service, s Summon, d Decision)
	// subs see every service state transition, in subscription order —
	// the multi-subscriber fan-out behind Subscribe. The board's
	// tracer rides here next to any test or tooling subscribers.
	subs []func(svc *Service, from, to ServiceState)
	// hungry counts the services whose parked connections wait on a
	// failed launch (Service.refires > 0): wake's scan runs only then.
	hungry int
	// reading is the memory promised to disk restores still reading
	// their checkpoint: admitted, but not yet allocated.
	reading int
}

func newActivation(j *Jitsu) *Activation {
	return &Activation{j: j, Fired: make(map[string]uint64)}
}

// Observe registers fn to see every firing together with its decision.
// Predictive triggers (PrewarmTrigger) learn arrival patterns here;
// observers must not re-enter Fire synchronously.
func (a *Activation) Observe(fn func(svc *Service, s Summon, d Decision)) {
	a.observers = append(a.observers, fn)
}

// Subscribe registers fn to observe every service state transition.
// Subscribers run in subscription order; they must not re-enter the
// activation machine synchronously.
func (a *Activation) Subscribe(fn func(svc *Service, from, to ServiceState)) {
	a.subs = append(a.subs, fn)
}

// tracer returns the board's flight recorder (nil when tracing is off)
// and the lane its events render on.
func (a *Activation) tracer() (*obs.Tracer, int) {
	return a.j.board.Tracer, a.j.board.Cfg.traceTID
}

// Fire runs the shared activation decision for one trigger firing:
// touch the service, admit (or refuse) a launch if it is stopped, and
// hook OnReady to its readiness. All four built-in frontends, the
// cluster scheduler and the prewarm trigger funnel through here.
func (a *Activation) Fire(svc *Service, s Summon) Decision {
	if s.Via == "" {
		s.Via = "direct"
	}
	d := a.fire(svc, s)
	if tr, tid := a.tracer(); tr != nil {
		tr.Instant(tid, "activation", "fire",
			obs.Str("svc", svc.Cfg.Name), obs.Str("via", s.Via), obs.Str("decision", d.String()))
	}
	if len(a.observers) > 0 && d != DecisionRetired {
		for _, fn := range a.observers {
			fn(svc, s, d)
		}
	}
	return d
}

func (a *Activation) fire(svc *Service, s Summon) Decision {
	if svc.retired {
		return DecisionRetired
	}
	a.Fired[s.Via]++
	a.touch(svc)
	if s.ColdStart && svc.State == StateWarmMemory {
		// The warm hit: a speculatively booted replica takes its first
		// client-driven traffic and becomes Running at zero launch cost.
		a.setState(svc, StateRunning)
	}
	switch {
	case svc.State.Booted():
		if s.OnReady != nil {
			s.OnReady(nil)
		}
		return DecisionServe
	case svc.State == StateLaunching:
		if s.ColdStart && svc.launchTarget == StateWarmMemory {
			// A client joined an in-flight speculative launch: it now
			// completes straight into Running.
			svc.launchTarget = StateRunning
		}
		a.await(svc, s.OnReady)
		return DecisionServe
	}
	victims, ok := a.admit(svc, s.After)
	if !ok {
		// "resource exhaustion can thus be returned in the DNS
		// response as a SERVFAIL to indicate the client should go
		// elsewhere".
		if s.Refuse {
			svc.ServFails++
		}
		if tr, tid := a.tracer(); tr != nil {
			tr.Instant(tid, "activation", "admission.refuse",
				obs.Str("svc", svc.Cfg.Name),
				obs.Num("free_mib", int64(a.j.board.Hyp.FreeMemMiB())),
				obs.Num("need_mib", int64(svc.Cfg.Image.MemMiB)))
		}
		a.settle(svc, ErrNoMemory) // as a failed launch: parked connections keep their retries
		return DecisionNoMemory
	}
	// A client-driven launch completes into Running, a speculative one
	// into WarmMemory.
	target := StateWarmMemory
	if s.ColdStart {
		target = StateRunning
		if svc.State == StateCold {
			svc.ColdStarts++
		}
	}
	a.start(svc, launchKind(svc), target, victims, s.OnReady)
	return DecisionColdStart
}

// launchKind is the boot path that gets a stopped replica running: a
// disk restore for a checkpoint parked on disk, a cold boot otherwise.
func launchKind(svc *Service) string {
	if svc.State == StateColdDisk {
		return "disk-restore"
	}
	return "boot"
}

// freeFor is the memory a launch of svc may count on: what is free now
// plus what the service's own dying VM gives back when its destroy
// completes, which the launch waits for.
func (a *Activation) freeFor(svc *Service) int {
	free := a.j.FreeMemMiB()
	if svc.dying {
		free += svc.Cfg.Image.MemMiB
	}
	return free
}

// admit is the memory gate every firing, refire and wake passes: the
// image fits — counting the replica after names, whose destroy the
// launch then joins — or, on a board with a disk, demoteForRoom's
// victims make it fit.
func (a *Activation) admit(svc *Service, after *Service) (victims []*Service, ok bool) {
	free := a.freeFor(svc)
	if after != nil && after.dying {
		free += after.Cfg.Image.MemMiB
		victims = []*Service{after}
	}
	if free >= svc.Cfg.Image.MemMiB {
		return victims, true
	}
	victims = a.demoteForRoom(svc)
	return victims, victims != nil
}

// restore is Fire for a migrated-in replica: the domain is rebuilt from
// the checkpoint and the guest resumes instead of cold-booting.
func (a *Activation) restore(svc *Service, cp *Checkpoint, onReady func(error)) error {
	if svc.retired {
		return ErrNoSuchService
	}
	if svc.State != StateCold {
		return errors.New("core: restore target not cold")
	}
	if a.freeFor(svc) < cp.Image.MemMiB {
		return ErrNoMemory
	}
	a.touch(svc)
	a.start(svc, "restore", StateWarmMemory, nil, onReady)
	return nil
}

// claimIdleIP puts a stopped service's address under proxy control:
// Synjitsu aliases it (full handshake), or — without Synjitsu — the
// directory host answers only ARP so SYNs transmit and die, the
// baseline behaviour of Figure 9a.
func (a *Activation) claimIdleIP(svc *Service) {
	b := a.j.board
	if b.Tracer != nil {
		b.Tracer.Instant(b.Cfg.traceTID, "activation", "claim_ip", obs.Str("svc", svc.Cfg.Name))
	}
	if b.Syn != nil {
		b.Syn.claim(svc)
	} else {
		b.NS.ProxyARPFor(svc.Cfg.IP)
		b.NS.AnnounceIP(svc.Cfg.IP)
	}
}

// releaseIdleIP undoes claimIdleIP when the real unikernel takes over.
func (a *Activation) releaseIdleIP(svc *Service) {
	b := a.j.board
	if b.Tracer != nil {
		b.Tracer.Instant(b.Cfg.traceTID, "activation", "release_ip", obs.Str("svc", svc.Cfg.Name))
	}
	if b.Syn != nil {
		b.Syn.release(svc)
	} else {
		b.NS.RemoveProxyARP(svc.Cfg.IP)
	}
}

// touch records service activity for the idle reaper.
func (a *Activation) touch(svc *Service) {
	svc.lastActivity = a.j.board.Eng.Now()
}

// setState moves a service between lifecycle states, fanning the
// transition out to every subscriber.
func (a *Activation) setState(svc *Service, to ServiceState) {
	from := svc.State
	svc.State = to
	if from == to {
		return
	}
	for _, fn := range a.subs {
		fn(svc, from, to)
	}
}

// await adds fn (may be nil) to the parties waiting on svc's launch,
// in FIFO order: part of the determinism contract.
func (a *Activation) await(svc *Service, fn func(error)) {
	if fn != nil {
		svc.waiters = append(svc.waiters, fn)
	}
}

// start begins a launch of a stopped replica through kind's boot path
// ("boot", "restore" or "disk-restore") into target, with onReady (may
// be nil) as its first waiter. Its leg first joins every destroy still
// in flight of the service's own previous VM and of victims.
func (a *Activation) start(svc *Service, kind string, target ServiceState, victims []*Service, onReady func(error)) {
	a.await(svc, onReady)
	svc.launchTarget = target
	a.setState(svc, StateLaunching)
	if !svc.dying && victims == nil {
		a.launchVia(svc, kind)
		return
	}
	a.join(&launchLeg{svc: svc, kind: kind, victims: victims})
}

// launchLeg is a launch parked on destroys in flight.
type launchLeg struct {
	svc     *Service
	kind    string
	victims []*Service
}

// join queues l behind the legs already waiting on the first destroy it
// waits on that is still in flight (that destroy's completion calls
// join again), then runs it. Free memory is checked again first:
// another placement can take a victim's memory between completions.
func (a *Activation) join(l *launchLeg) {
	svc := l.svc
	for _, w := range l.victims {
		if w.dying {
			w.joined = append(w.joined, l)
			return
		}
	}
	if svc.dying {
		svc.joined = append(svc.joined, l)
		return
	}
	switch {
	case svc.retired:
		a.setState(svc, StateCold)
		a.settle(svc, ErrNoSuchService)
	case a.freeFor(svc) < svc.Cfg.Image.MemMiB:
		a.setState(svc, a.revertState(svc))
		a.settle(svc, ErrNoMemory)
	default:
		a.launchVia(svc, l.kind)
	}
}

// launchVia runs a launch leg through kind's boot path: Launcher.Launch
// for a cold start, Launcher.Restore for a migrated-in checkpoint, or a
// disk read (queued behind any in-flight demotion write) ahead of a
// restore-priced rebuild. The whole path is one span on the board's
// tracer, named after kind; that span is the launch's latency record.
func (a *Activation) launchVia(svc *Service, kind string) {
	b := a.j.board
	svc.Launches++
	if tr, tid := a.tracer(); tr != nil {
		svc.bootSpan = tr.Begin(tid, "activation", kind,
			obs.Str("svc", svc.Cfg.Name), obs.Num("mem_mib", int64(svc.Cfg.Image.MemMiB)))
	}
	done := func(g *unikernel.Guest, err error) {
		if err != nil {
			a.setState(svc, a.revertState(svc))
			a.endBootSpan(svc, "error")
			a.settle(svc, err)
			return
		}
		if svc.retired {
			// The directory dropped this service mid-boot (its board
			// departed): destroy the guest instead of resurrecting a
			// retired registration and leaking its domain.
			a.setState(svc, StateCold)
			a.endBootSpan(svc, "retired")
			b.Launcher.Destroy(g, func(error) { a.wake() })
			a.settle(svc, ErrNoSuchService)
			return
		}
		svc.Guest = g
		// Two-phase handoff from the proxy happens inside this same
		// event, before any network event can interleave, so exactly
		// one of Synjitsu or the unikernel ever answers a given packet.
		a.releaseIdleIP(svc)
		// A completed disk restore supersedes the parked checkpoint.
		a.dropDiskCheckpoint(svc)
		a.setState(svc, svc.launchTarget)
		a.endBootSpan(svc, "ready")
		a.touch(svc)
		a.scheduleReap(svc)
		a.settle(svc, nil)
	}
	img, ip := svc.Cfg.Image, svc.Cfg.IP
	switch kind {
	case "restore":
		svc.Restores++
		b.Launcher.Restore(img, ip, done)
	case "disk-restore":
		svc.DiskRestores++
		a.reading += img.MemMiB
		b.Disk.Read(svc.disk.cp.StateMiB, func() {
			a.reading -= img.MemMiB
			b.Launcher.Restore(img, ip, done)
		})
	default:
		b.Launcher.Launch(img, ip, done)
	}
}

// parkedRetry spaces the firings a failed launch owes the connections
// Synjitsu parked for it: 1, 2 and 4 s on, each through admission, then
// a reset 8 s after the last.
var parkedRetry = sim.Backoff{Initial: time.Second, Factor: 2, Retries: 3}

// settle ends svc's launch, or a firing admission refused: every waiter
// hears err, nil once the unikernel serves. After a failure Synjitsu's
// parked connections stay parked, and while one is live parkedRetry
// books the next firing on their behalf; they are reset when the service
// is deregistered or the schedule is spent, never at the failure itself.
func (a *Activation) settle(svc *Service, err error) {
	ws := svc.waiters
	svc.waiters = nil
	for _, w := range ws {
		w(err)
	}
	if err == nil || svc.retired || !a.parked(svc) {
		a.resetParked(svc) // handed off, or nobody left to wait
		return
	}
	if !svc.refire.Cancelled() {
		return // the schedule's next firing is booked already
	}
	if svc.refires == 0 {
		a.hungry++
	}
	d, again := parkedRetry.Next(svc.refires, nil)
	svc.refires++
	svc.refire = a.j.board.Eng.After(d, func() {
		switch {
		case svc.retired || !svc.State.NeedsLaunch():
			// Reset at Deregister, or a launch in flight carries them.
		case !again || !a.parked(svc):
			a.resetParked(svc)
		case !a.refire(svc):
			a.settle(svc, ErrNoMemory)
		}
	})
}

// parked reports whether a connection Synjitsu parked for svc can still
// be handed off.
func (a *Activation) parked(svc *Service) bool {
	for _, c := range svc.conns {
		if _, err := c.ExportTCB(); err == nil {
			return true
		}
	}
	return false
}

// refire launches svc for its parked connections if admission lets it.
func (a *Activation) refire(svc *Service) bool {
	victims, ok := a.admit(svc, nil)
	if ok {
		a.start(svc, launchKind(svc), StateRunning, victims, nil)
	}
	return ok
}

// wake runs when a destroy gives memory back: a service whose parked
// connections wait on a failed launch gets it before any other firing
// can. A refusal here costs no retry.
func (a *Activation) wake() {
	for i := 0; a.hungry > 0 && i < len(a.j.ordered); i++ {
		if svc := a.j.ordered[i]; svc.refires > 0 && svc.State.NeedsLaunch() && a.parked(svc) {
			a.refire(svc)
		}
	}
}

// resetParked ends svc's retries, resetting the connections still
// parked for it.
func (a *Activation) resetParked(svc *Service) {
	for _, c := range svc.conns {
		c.Abort()
	}
	svc.conns = nil
	if svc.refires > 0 {
		svc.refires = 0
		a.hungry--
		a.j.board.Eng.Cancel(svc.refire)
	}
}

// revertState is where a failed launch leaves the replica: back on disk
// if its checkpoint is still parked there, fully cold otherwise.
func (a *Activation) revertState(svc *Service) ServiceState {
	if svc.disk != nil {
		return StateColdDisk
	}
	return StateCold
}

// endBootSpan closes the service's in-flight boot/restore span, if any.
func (a *Activation) endBootSpan(svc *Service, status string) {
	if svc.bootSpan.ID == 0 {
		return
	}
	a.j.board.Tracer.End(svc.bootSpan, obs.Str("status", status))
	svc.bootSpan = obs.Span{}
}

// reclaimable is the one reclaim rule, asked by the pool shrink and
// preemption (through Jitsu.Reclaim), demoteForRoom and the idle reaper:
// a booted replica may go only once its guest owes its clients no bytes
// (§3.3.1: no packet is lost to the lifecycle). The wait is bounded: TCP
// acknowledges an unacked send or gives up on it.
func reclaimable(svc *Service) bool {
	return svc.State.Booted() && !svc.Guest.Stack.Owes()
}

// stopNow tears a booted service down to fully cold: shared by Evict,
// Reclaim and the idle reaper.
func (a *Activation) stopNow(svc *Service) {
	svc.Reaps++
	a.teardown(svc, StateCold)
}

// teardown takes a booted service's VM away, leaving the service at to:
// the guest is dropped, the state set, the idle IP claimed back for
// dom0, and then the VM destroyed. Until Destroy completes the service
// is dying: a launch joins that destroy (the domain's name and memory
// are still taken) and runs when it completes.
func (a *Activation) teardown(svc *Service, to ServiceState) {
	g := svc.Guest
	svc.Guest = nil
	a.setState(svc, to)
	a.claimIdleIP(svc)
	svc.dying = true
	a.j.board.Launcher.Destroy(g, func(error) {
		svc.dying = false
		legs := svc.joined
		svc.joined = nil
		for _, l := range legs {
			a.join(l)
		}
		a.wake()
	})
}

// demote parks a booted replica's state on the block device and
// destroys its VM: warm-in-memory → cold-on-disk. The memory is back in
// the free pool at Destroy completion, while the checkpoint bytes
// stream out behind it; a promote racing the write is serialized by the
// device's FIFO queue.
func (a *Activation) demote(svc *Service) error {
	if svc.retired {
		return ErrNoSuchService
	}
	if !svc.State.Booted() {
		return ErrNotBooted
	}
	cp, _ := a.j.Checkpoint(svc) // a booted replica always has one
	if err := a.parkOnDisk(svc, cp); err != nil {
		return err
	}
	svc.Demotions++
	b := a.j.board
	var span obs.Span
	if tr, tid := a.tracer(); tr != nil {
		span = tr.Begin(tid, "activation", "demote",
			obs.Str("svc", svc.Cfg.Name), obs.Num("state_mib", int64(cp.StateMiB)))
	}
	a.teardown(svc, StateColdDisk)
	b.Disk.Write(cp.StateMiB, func() {
		if span.ID != 0 {
			b.Tracer.End(span, obs.Str("status", "durable"))
		}
	})
	return nil
}

// parkOnDisk claims the board's disk slots for cp as svc's checkpoint;
// the caller writes it.
func (a *Activation) parkOnDisk(svc *Service, cp *Checkpoint) error {
	dev := a.j.board.Disk
	if dev == nil {
		return ErrNoDisk
	}
	slots, ok := dev.Alloc(cp.StateMiB)
	if !ok {
		return ErrDiskFull
	}
	svc.disk = &diskCheckpoint{cp: *cp, slots: slots}
	return nil
}

// promote is the control-plane entry for cold-on-disk →
// warm-in-memory: admission, then the disk-restore leg.
func (a *Activation) promote(svc *Service, target ServiceState, onReady func(error)) error {
	if svc.retired {
		return ErrNoSuchService
	}
	if svc.State != StateColdDisk {
		return ErrNotOnDisk
	}
	if a.freeFor(svc) < svc.Cfg.Image.MemMiB {
		return ErrNoMemory
	}
	a.start(svc, "disk-restore", target, nil, onReady)
	return nil
}

// adoptCheckpoint parks an incoming checkpoint on this board's disk
// without booting it: cold → cold-on-disk.
func (a *Activation) adoptCheckpoint(svc *Service, cp *Checkpoint) error {
	if svc.retired {
		return ErrNoSuchService
	}
	if svc.State != StateCold {
		return errors.New("core: adopt target not cold")
	}
	if err := a.parkOnDisk(svc, cp); err != nil {
		return err
	}
	a.setState(svc, StateColdDisk)
	a.j.board.Disk.Write(cp.StateMiB, nil)
	return nil
}

// dropDiskCheckpoint frees a replica's parked checkpoint, if any. The
// lifecycle state is the caller's concern — a completed promote moves
// to a booted tier, an eviction to Cold.
func (a *Activation) dropDiskCheckpoint(svc *Service) {
	if svc.disk == nil {
		return
	}
	a.j.board.Disk.Free(svc.disk.slots)
	svc.disk = nil
}

// demoteForRoom is the memory-pressure path: when admission fails on a
// board with a disk, it demotes the least-recently-used reclaimable
// replicas until the projected free memory covers the launch, and
// returns them: the launch leg joins their destroys. Plan-then-execute:
// a plan that cannot reach the target (disk full, not enough victims)
// demotes nobody, returns nil, and the firing refuses as before. Candidates go LRU by
// last activity; the stable sort keeps ties in the directory's name order.
func (a *Activation) demoteForRoom(svc *Service) []*Service {
	dev := a.j.board.Disk
	if dev == nil {
		return nil
	}
	need := svc.Cfg.Image.MemMiB
	var cands []*Service
	for _, c := range a.j.ordered {
		if c != svc && reclaimable(c) {
			cands = append(cands, c)
		}
	}
	sort.SliceStable(cands, func(i, k int) bool { return cands[i].lastActivity < cands[k].lastActivity })
	free := a.freeFor(svc)
	slotsFree := dev.SlotsTotal() - dev.SlotsUsed()
	var victims []*Service
	for _, c := range cands {
		if free >= need {
			break
		}
		sn := dev.SlotsFor(c.Cfg.StateMiB)
		if sn > slotsFree {
			continue
		}
		slotsFree -= sn
		free += c.Cfg.Image.MemMiB
		victims = append(victims, c)
	}
	if free < need {
		return nil
	}
	if tr, tid := a.tracer(); tr != nil {
		tr.Instant(tid, "activation", "pressure.demote",
			obs.Str("svc", svc.Cfg.Name), obs.Num("victims", int64(len(victims))))
	}
	for _, v := range victims {
		_ = a.demote(v) // planned: booted, and its slots counted
	}
	return victims
}

// scheduleReap arms the idle timer: when the service has seen no
// activity for IdleTimeout, its VM is destroyed and the IP returns to
// proxy control — "services listening on a network endpoint are always
// available ... but are otherwise not running to reduce resource
// utilisation".
func (a *Activation) scheduleReap(svc *Service) {
	idle := svc.Cfg.IdleTimeout
	if idle <= 0 {
		return
	}
	eng := a.j.board.Eng
	deadline := svc.lastActivity + idle
	if now := eng.Now(); deadline <= now {
		deadline = now + idle // the guest still owed bytes: look again later
	}
	eng.At(deadline, func() {
		switch {
		case !svc.State.Booted():
		case eng.Now()-svc.lastActivity < idle || !reclaimable(svc):
			a.scheduleReap(svc) // activity moved the deadline, or bytes are owed
		default:
			a.stopNow(svc)
		}
	})
}
