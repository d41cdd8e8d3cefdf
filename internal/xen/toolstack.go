package xen

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"jitsu/internal/sim"
	"jitsu/internal/xenstore"
)

// ToolstackOpts selects which of the §3.1 optimisations are active.
// VanillaOpts is stock Xen 4.4; OptimisedOpts is the full Jitsu
// toolstack. The intermediate combinations are the lines of Figure 4.
type ToolstackOpts struct {
	// Hotplug selects the vif hotplug mechanism.
	Hotplug HotplugMechanism
	// ParallelAttach runs vif creation in parallel with the domain
	// builder instead of strictly after it.
	ParallelAttach bool
	// Console synchronously attaches the primary console; the final
	// optimisation removes it (attaching lazily after boot).
	Console bool
	// PrecreatePool keeps this many pre-built, paused domains around so
	// launch is just image load + unpause. The paper declines this
	// ("we prefer not to pay the cost of increased memory usage") but
	// we implement it for the ablation bench.
	PrecreatePool int
	// PoolMemMiB is the memory size of pre-created domains.
	PoolMemMiB int
}

// VanillaOpts is the stock Xen 4.4.0 toolstack configuration.
func VanillaOpts() ToolstackOpts {
	return ToolstackOpts{Hotplug: HotplugBash, ParallelAttach: false, Console: true}
}

// OptimisedOpts is the fully optimised Jitsu toolstack configuration.
func OptimisedOpts() ToolstackOpts {
	return ToolstackOpts{Hotplug: HotplugIoctl, ParallelAttach: true, Console: false}
}

// ErrTooManyRetries guards against a livelocked transaction loop.
var ErrTooManyRetries = errors.New("xen: xenstore transaction retried too many times")

const maxTxRetries = 100000

// Toolstack drives domain construction and destruction against the
// hypervisor and XenStore, charging virtual time per the platform cost
// model. It is the component Figure 4 measures.
type Toolstack struct {
	hyp  *Hypervisor
	opts ToolstackOpts
	pool []*Domain

	// TxRetries counts EAGAIN retries, the quantity that explodes in
	// Figure 3 under the C reconciler.
	TxRetries uint64
}

// NewToolstack creates a toolstack over hyp with the given options.
func NewToolstack(hyp *Hypervisor, opts ToolstackOpts) *Toolstack {
	ts := &Toolstack{hyp: hyp, opts: opts}
	for i := 0; i < opts.PrecreatePool; i++ {
		ts.refillPool()
	}
	return ts
}

// Hypervisor returns the hypervisor this toolstack drives.
func (ts *Toolstack) Hypervisor() *Hypervisor { return ts.hyp }

// xsOpCost picks the per-operation cost for the store's daemon flavour.
func (ts *Toolstack) xsOpCost() sim.Duration {
	if _, isC := ts.hyp.Store.Reconciler().(xenstore.CReconciler); isC {
		return ts.hyp.Platform.XSOpCostC
	}
	return ts.hyp.Platform.XSOpCost
}

// runTx writes d's record set inside a XenStore transaction, charging
// per-op time, and retries from scratch on ErrAgain exactly like libxl's
// EAGAIN loop. then hears the terminal error (nil on success).
func (ts *Toolstack) runTx(write recordSet, d *Domain, then stepper) {
	(&txRun{ts: ts, write: write, d: d, then: then}).attempt()
}

// runTxAfter is runTx once delay has passed: a step's own cost first,
// then its transaction.
func (ts *Toolstack) runTxAfter(delay sim.Duration, write recordSet, d *Domain, then stepper) {
	ts.hyp.Eng.AfterHandler(delay, &txRun{ts: ts, write: write, d: d, then: then})
}

// recordSet writes one of the record sets below for d in tx.
type recordSet func(st *xenstore.Store, tx *xenstore.Tx, d *Domain) error

// stepper hears how a step ended.
type stepper interface{ stepDone(err error) }

// stepFunc is a func as a stepper.
type stepFunc func(error)

func (f stepFunc) stepDone(err error) { f(err) }

// txRun is one runTx loop: the state its attempts and commits share. It
// is the sim.Handler of both.
type txRun struct {
	ts       *Toolstack
	write    recordSet
	d        *Domain
	then     stepper
	tx       *xenstore.Tx // the attempt awaiting its commit
	attempts int
}

// Fire runs the next attempt, or commits the one awaiting its commit.
func (r *txRun) Fire() {
	if r.tx == nil {
		r.attempt()
	} else {
		r.commit()
	}
}

// attempt writes the record set in a fresh transaction and schedules
// its commit once the per-op time is charged.
func (r *txRun) attempt() {
	r.attempts++
	if r.attempts > maxTxRetries {
		r.then.stepDone(ErrTooManyRetries)
		return
	}
	h := r.ts.hyp
	before := h.Store.Stats().Ops
	tx := h.Store.Begin(Dom0)
	if err := r.write(h.Store, tx, r.d); err != nil {
		tx.Abort()
		r.then.stepDone(err)
		return
	}
	r.tx = tx
	ops := h.Store.Stats().Ops - before
	h.Eng.AfterHandler(h.charge(sim.Duration(ops)*r.ts.xsOpCost()), r)
}

// commit ends the attempt: then hears a success or a hard error,
// ErrAgain schedules another attempt.
func (r *txRun) commit() {
	err := r.tx.Commit()
	r.tx = nil
	if errors.Is(err, xenstore.ErrAgain) {
		r.ts.TxRetries++
		r.ts.hyp.Eng.AfterHandler(0, r)
		return
	}
	r.then.stepDone(err)
}

// DomainConfig describes a guest to create.
type DomainConfig struct {
	Name     string
	Kind     GuestKind
	MemMiB   int
	ImageMiB float64 // kernel image size: ~1 MiB unikernel, ~20 MiB Linux
}

// CreateDomain builds a domain: allocates it, zeroes memory, loads the
// image, writes the XenStore control records, creates and plugs the vif
// backend, optionally attaches the console, and unpauses. done fires
// when the domain is running (from the toolstack's perspective — guest
// boot is the guest's problem; see internal/unikernel).
func (ts *Toolstack) CreateDomain(cfg DomainConfig, done func(*Domain, error)) {
	// Pool fast path: claim a pre-created domain.
	if len(ts.pool) > 0 {
		d := ts.pool[len(ts.pool)-1]
		ts.pool = ts.pool[:len(ts.pool)-1]
		ts.claimPooled(d, cfg, done)
		ts.refillPool()
		return
	}

	h := ts.hyp
	d, err := h.allocDomain(cfg.Name, cfg.Kind, cfg.MemMiB)
	if err != nil {
		done(nil, err)
		return
	}
	h.cpuEnter()
	c := &creation{ts: ts, d: d, done: done, vifLeft: !ts.opts.ParallelAttach, consoleLeft: ts.opts.Console}
	// The domain builder proper: memory init plus the build transaction.
	p := h.Platform
	c.start(p.BaseBuild+
		sim.Duration(float64(p.MemZeroPerMiB)*float64(cfg.MemMiB))+
		sim.Duration(float64(p.ImageLoadPerMiB)*cfg.ImageMiB), writeBuildRecords)
	if ts.opts.ParallelAttach {
		c.startVif(false)
	}
}

// creation is one CreateDomain in flight: each step chain reports to it,
// and once the running ones have all reported it starts the next step —
// the serial vif chain, then the console — or finishes.
type creation struct {
	ts          *Toolstack
	d           *Domain
	done        func(*Domain, error)
	running     int   // step chains not yet reported
	failed      error // the first error one reported
	vifLeft     bool  // serial mode: the vif chain runs after the build
	consoleLeft bool
}

// start runs a step chain: its cost, then its record set's transaction.
func (c *creation) start(cost sim.Duration, write recordSet) {
	c.running++
	c.ts.runTxAfter(c.ts.hyp.charge(cost), write, c.d, c)
}

// startVif creates the backend vif and runs the hotplug step that adds
// it to the bridge. serial adds the blocking RPC round-trip penalty the
// parallel path hides.
func (c *creation) startVif(serial bool) {
	p := c.ts.hyp.Platform
	cost := p.VifCreate + p.HotplugCost[c.ts.opts.Hotplug]
	if serial {
		cost += p.SerialAttachPenalty
	}
	c.start(cost, writeVifRecords)
}

func (c *creation) stepDone(err error) {
	if err != nil && c.failed == nil {
		c.failed = err
	}
	if c.running--; c.running > 0 {
		return
	}
	switch {
	case c.failed != nil:
		c.finish(c.failed)
	case c.vifLeft:
		c.vifLeft = false
		c.startVif(true)
	case c.consoleLeft:
		c.consoleLeft = false
		c.start(c.ts.hyp.Platform.ConsoleAttach, writeConsoleRecords)
	default:
		c.finish(nil)
	}
}

func (c *creation) finish(err error) {
	h, d := c.ts.hyp, c.d
	h.cpuExit()
	if err != nil {
		h.DestroyDomain(d.ID)
		c.done(nil, err)
		return
	}
	d.State = StateRunning
	d.Created = h.Eng.Now()
	h.Store.FireSpecial(xenstore.SpecialIntroduceDomain)
	c.done(d, nil)
}

// DestroyDomain tears down a guest: XenStore cleanup transaction plus
// the hypercall work.
func (ts *Toolstack) DestroyDomain(id DomID, done func(error)) {
	h := ts.hyp
	d, err := h.Domain(id)
	if err != nil || id == Dom0 {
		done(ErrNoSuchDomain)
		return
	}
	d.State = StateShutdown
	h.cpuEnter()
	ts.runTxAfter(h.charge(25*time.Millisecond), removeDomainRecords, d, stepFunc(func(err error) {
		h.cpuExit()
		if err == nil {
			err = h.DestroyDomain(id)
			h.Store.FireSpecial(xenstore.SpecialReleaseDomain)
		}
		done(err)
	}))
}

// ---- pre-created domain pool (ablation) ----

func (ts *Toolstack) refillPool() {
	if ts.opts.PrecreatePool == 0 || len(ts.pool) >= ts.opts.PrecreatePool {
		return
	}
	mem := ts.opts.PoolMemMiB
	if mem == 0 {
		mem = 16
	}
	name := fmt.Sprintf("pool-%d-%d", len(ts.pool), ts.hyp.Eng.Now())
	d, err := ts.hyp.allocDomain(name, GuestUnikernel, mem)
	if err != nil {
		return // pool refill is best-effort: host may be full
	}
	d.State = StatePaused
	ts.runTx(writePoolRecords, d, stepFunc(func(error) {}))
	ts.pool = append(ts.pool, d)
}

// claimPooled turns a pre-created paused domain into the requested
// guest: only the image load and unpause remain on the critical path.
func (ts *Toolstack) claimPooled(d *Domain, cfg DomainConfig, done func(*Domain, error)) {
	h := ts.hyp
	d.Name = cfg.Name
	d.Kind = cfg.Kind
	cost := h.charge(sim.Duration(float64(h.Platform.ImageLoadPerMiB)*cfg.ImageMiB) + 2*time.Millisecond)
	ts.runTxAfter(cost, writeName, d, stepFunc(func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		d.State = StateRunning
		d.Created = h.Eng.Now()
		done(d, nil)
	}))
}

// ---- XenStore record sets ----
//
// These are the transactional write sets whose conflict behaviour drives
// Figure 3. Writes under the domain's own subtree are private; the
// backend entries under dom0's tree are the shared contention point.
// Each set is a table written top to bottom: the order of a
// transaction's log is the order its watch events fire in at commit, so
// it must not vary from run to run. A set's full paths are built as one
// string and each write gets a slice of it, so the nodes a set creates
// share (and keep alive) that one buffer until the domain goes.

// record is one key, relative to a set's base path, and its value.
type record struct{ key, value string }

func writeRecords(st *xenstore.Store, tx *xenstore.Tx, base string, records []record) error {
	size := 0
	for _, r := range records {
		size += len(base) + len(r.key)
	}
	var b strings.Builder
	b.Grow(size)
	for _, r := range records {
		b.WriteString(base)
		b.WriteString(r.key)
	}
	paths := b.String()
	for _, r := range records {
		n := len(base) + len(r.key)
		if err := st.Write(Dom0, tx, paths[:n], r.value); err != nil {
			return err
		}
		paths = paths[n:]
	}
	return nil
}

func writeBuildRecords(st *xenstore.Store, tx *xenstore.Tx, d *Domain) error {
	memKiB := strconv.Itoa(d.MemMiB * 1024)
	return writeRecords(st, tx, d.XSPath(), []record{
		{"/name", d.Name},
		{"/domid", strconv.Itoa(int(d.ID))},
		{"/memory/target", memKiB},
		{"/memory/static-max", memKiB},
		{"/vm", "/vm/" + d.Name},
		{"/control/shutdown", ""},
		{"/console/ring-ref", "8"},
		{"/console/port", "2"},
		{"/console/limit", "1048576"},
		{"/console/type", "xenconsoled"},
		{"/store/ring-ref", "1"},
		{"/store/port", "1"},
	})
}

// writePoolRecords is a pre-created domain's build and vif sets.
func writePoolRecords(st *xenstore.Store, tx *xenstore.Tx, d *Domain) error {
	if err := writeBuildRecords(st, tx, d); err != nil {
		return err
	}
	return writeVifRecords(st, tx, d)
}

// writeName renames a claimed pool domain.
func writeName(st *xenstore.Store, tx *xenstore.Tx, d *Domain) error {
	return st.Write(Dom0, tx, d.XSPath()+"/name", d.Name)
}

func writeVifRecords(st *xenstore.Store, tx *xenstore.Tx, d *Domain) error {
	id := strconv.Itoa(int(d.ID))
	front := d.XSPath() + "/device/vif/0"
	back := "/local/domain/0/backend/vif/" + id + "/0"
	mac := macFor(d.ID)
	if err := writeRecords(st, tx, front, []record{
		{"/backend", back},
		{"/backend-id", "0"},
		{"/mac", mac},
		{"/state", "1"},
	}); err != nil {
		return err
	}
	return writeRecords(st, tx, back, []record{
		{"/frontend", front},
		{"/frontend-id", id},
		{"/mac", mac},
		{"/bridge", "xenbr0"},
		{"/handle", "0"},
		{"/state", "4"},
	})
}

func writeConsoleRecords(st *xenstore.Store, tx *xenstore.Tx, d *Domain) error {
	return writeRecords(st, tx, d.XSPath()+"/console", []record{
		{"/tty", "/dev/pts/" + strconv.Itoa(int(d.ID))},
		{"/state", "4"},
		{"/output", "pty"},
	})
}

func removeDomainRecords(st *xenstore.Store, tx *xenstore.Tx, d *Domain) error {
	if err := st.Rm(Dom0, tx, d.XSPath()); err != nil && !errors.Is(err, xenstore.ErrNotFound) {
		return err
	}
	if err := st.Rm(Dom0, tx, "/local/domain/0/backend/vif/"+strconv.Itoa(int(d.ID))); err != nil && !errors.Is(err, xenstore.ErrNotFound) {
		return err
	}
	return nil
}

// macFor derives a stable locally administered MAC for a domain's vif.
func macFor(id DomID) string {
	return fmt.Sprintf("00:16:3e:00:%02x:%02x", (int(id)>>8)&0xff, int(id)&0xff)
}
