package core

import (
	"jitsu/internal/blockdev"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
	"jitsu/internal/xen"
)

// Option tunes one aspect of a board under construction. Options apply
// on top of DefaultConfig, so `core.New()` is the headline Cubieboard2
// configuration and each deviation is named at the call site:
//
//	b := core.New(core.WithSeed(7), core.WithSynjitsu(false))
//
// Options are the one way to configure a board: each writes the
// BoardConfig fields it names, and no other code does.
type Option func(*BoardConfig)

// WithSeed sets the simulation seed.
func WithSeed(seed int64) Option {
	return func(c *BoardConfig) { c.Seed = seed }
}

// WithPlatform selects the hardware model (xen.CubieboardARM,
// xen.GenericX86, ...).
func WithPlatform(p *xen.Platform) Option {
	return func(c *BoardConfig) { c.platform = p }
}

// WithToolstack selects the toolstack optimisation stage
// (xen.VanillaOpts, xen.OptimisedOpts, or a hand-built stage).
func WithToolstack(opts xen.ToolstackOpts) Option {
	return func(c *BoardConfig) { c.toolstack = opts }
}

// WithMemory sets guest-available RAM in MiB.
func WithMemory(miB int) Option {
	return func(c *BoardConfig) { c.TotalMemMiB = miB }
}

// WithSynjitsu enables or disables the connection proxy.
func WithSynjitsu(on bool) Option {
	return func(c *BoardConfig) { c.synjitsu = on }
}

// WithDelayedDNS selects the §3.3.1 alternative the paper rejects:
// hold the DNS answer until the unikernel network is live.
func WithDelayedDNS(on bool) Option {
	return func(c *BoardConfig) { c.delayDNSUntilReady = on }
}

// WithSYNRateLimit arms the SYN trigger's per-service admission token
// bucket: at most burst launches back to back, refilled at rate
// launches/second, so a SYN flood cannot reboot a reaped service at
// every reap. rate <= 0 disables the limiter (the default).
func WithSYNRateLimit(rate float64, burst int) Option {
	return func(c *BoardConfig) {
		c.synLaunchRate = rate
		c.synLaunchBurst = burst
	}
}

// WithDisk attaches a simulated block device — the board's checkpoint
// store, enabling the cold-on-disk tier (Demote/Promote, pressure
// demotion instead of refusal). blockdev.DefaultConfig() models the
// SD-card-class storage an embedded board carries; the zero Config
// keeps the board diskless (the default).
func WithDisk(cfg blockdev.Config) Option {
	return func(c *BoardConfig) { c.disk = cfg }
}

// WithTracer attaches the observability flight recorder; tid is the
// tracer lane the board's events render on (cluster builders hand each
// board its own lane). A nil tracer keeps tracing off.
func WithTracer(tr *obs.Tracer, tid int) Option {
	return func(c *BoardConfig) {
		c.tracer = tr
		c.traceTID = tid
	}
}

// configFrom resolves DefaultConfig plus options.
func configFrom(opts []Option) BoardConfig {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// New builds and wires a board on its own simulation engine.
func New(opts ...Option) *Board {
	cfg := configFrom(opts)
	return buildBoard(sim.New(cfg.Seed), cfg)
}

// NewOnEngine builds a board on a shared engine, so several boards (a
// Fleet, a cluster) advance through one coherent virtual time.
func NewOnEngine(eng *sim.Engine, opts ...Option) *Board {
	return buildBoard(eng, configFrom(opts))
}
