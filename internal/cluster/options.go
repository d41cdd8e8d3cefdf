package cluster

import (
	"jitsu/internal/core"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// Option tunes one aspect of a cluster under construction. Options
// apply on top of DefaultConfig, so `cluster.NewCluster()` is the
// 4-board least-loaded configuration and each deviation is named at the
// call site:
//
//	c := cluster.NewCluster(cluster.WithBoards(8),
//		cluster.WithPolicy(cluster.PowerAware{}),
//		cluster.WithSeed(7))
type Option func(*Config)

// WithBoards sets the number of boards built at construction (more may
// join later via AddBoard).
func WithBoards(n int) Option {
	return func(c *Config) { c.Boards = n }
}

// WithTracer records every board's activation spans plus the cluster's
// gossip and migration events into tr; board i traces on lane base+i.
func WithTracer(tr *obs.Tracer, base int) Option {
	return func(c *Config) { c.Tracer, c.TraceTIDBase = tr, base }
}

// WithBoardOptions applies core board options to every member board.
func WithBoardOptions(opts ...core.Option) Option {
	return func(c *Config) {
		for _, o := range opts {
			o(&c.Board)
		}
	}
}

// WithSeed sets the shared simulation seed (shorthand for
// WithBoardOptions(core.WithSeed(seed))).
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Board.Seed = seed }
}

// WithPolicy sets the default placement policy for services that don't
// pick their own.
func WithPolicy(p Policy) Option {
	return func(c *Config) { c.DefaultPolicy = p }
}

// WithWarmPool tunes the EWMA warm-pool sizing: factor scales
// rate×boot-time into a pool target, maxPerService caps any one
// service's pool (0 = one per board).
func WithWarmPool(factor float64, maxPerService int) Option {
	return func(c *Config) {
		c.WarmFactor = factor
		c.MaxWarmPerService = maxPerService
	}
}

// WithMinRate sets the arrivals/sec below which a service's warm pool
// drains to MinWarm — raise it so rarely-visited services pay a cold
// start instead of pinning memory.
func WithMinRate(r float64) Option {
	return func(c *Config) { c.MinRate = r }
}

// WithProbing turns the gossip failure detector on: probe period,
// per-probe ack timeout, and how long a suspicion may stand unrefuted.
// Zero values keep the respective default.
func WithProbing(every, timeout, suspect sim.Duration) Option {
	return func(c *Config) {
		c.ProbeEvery = every
		if timeout > 0 {
			c.ProbeTimeout = timeout
		}
		if suspect > 0 {
			c.SuspectTimeout = suspect
		}
	}
}

// WithIndirectProbes sets the SWIM ping-req fan-out (0 disables the
// indirection — the false-suspicion ablation on lossy links).
func WithIndirectProbes(k int) Option {
	return func(c *Config) { c.IndirectProbes = k }
}

// WithMigrateOnLeave selects the graceful-departure policy: live
// migration (true) or the preempt-and-reboot baseline (false).
func WithMigrateOnLeave(on bool) Option {
	return func(c *Config) { c.MigrateOnLeave = on }
}

// WithUnpacedTransfers disables checkpoint-copy congestion control:
// every chunk blasts onto the management link immediately with the
// fixed doubling RTO — the Stampede ablation arm.
func WithUnpacedTransfers(on bool) Option {
	return func(c *Config) { c.UnpacedTransfers = on }
}

// NewCluster builds the cluster from DefaultConfig plus options.
func NewCluster(opts ...Option) *Cluster {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return build(cfg)
}

// ServiceOption tunes one service registration (RegisterService).
type ServiceOption func(*ServiceOpts)

// WithMinWarm keeps at least k replicas of the service booted at all
// times, regardless of observed arrival rate.
func WithMinWarm(k int) ServiceOption {
	return func(o *ServiceOpts) { o.MinWarm = k }
}

// WithServicePolicy overrides the cluster's default placement policy
// for this service.
func WithServicePolicy(p Policy) ServiceOption {
	return func(o *ServiceOpts) { o.Policy = p }
}

// RegisterService adds a service to the cluster directory with
// per-service options; see Register for the underlying semantics.
func (c *Cluster) RegisterService(sc core.ServiceConfig, opts ...ServiceOption) *Entry {
	var o ServiceOpts
	for _, opt := range opts {
		opt(&o)
	}
	return c.register(sc, o)
}
