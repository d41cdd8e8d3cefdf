package cluster

import (
	"jitsu/internal/core"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// Option tunes one aspect of a cluster under construction. Options
// apply on top of the default 4-board least-loaded configuration, so
// `cluster.NewCluster()` is that cluster and each deviation is named at
// the call site:
//
//	c := cluster.NewCluster(cluster.WithBoards(8),
//		cluster.WithPolicy(cluster.PowerAware{}),
//		cluster.WithSeed(7))
type Option func(*Config)

// WithBoards sets the number of boards built at construction (more may
// join later via AddBoard).
func WithBoards(n int) Option {
	return func(c *Config) { c.boards = n }
}

// WithTracer records every board's activation spans plus the cluster's
// gossip and migration events into tr; board i traces on lane base+i.
func WithTracer(tr *obs.Tracer, base int) Option {
	return func(c *Config) { c.tracer, c.traceTIDBase = tr, base }
}

// WithBoardOptions applies core board options to every member board.
func WithBoardOptions(opts ...core.Option) Option {
	return func(c *Config) { c.board(opts...) }
}

// WithSeed sets the shared simulation seed.
func WithSeed(seed int64) Option { return WithBoardOptions(core.WithSeed(seed)) }

// WithPolicy sets the default placement policy for services that don't
// pick their own.
func WithPolicy(p Policy) Option {
	return func(c *Config) { c.defaultPolicy = p }
}

// WithWarmPool tunes the EWMA warm-pool sizing: factor scales
// rate×boot-time into a pool target (<= 0 keeps the default 1.0),
// maxPerService caps any one service's pool (0 = one per board).
func WithWarmPool(factor float64, maxPerService int) Option {
	return func(c *Config) {
		if factor > 0 {
			c.warmFactor = factor
		}
		c.maxWarmPerService = maxPerService
	}
}

// WithMinRate sets the arrivals/sec below which a service's warm pool
// drains to MinWarm — raise it so rarely-visited services pay a cold
// start instead of pinning memory.
func WithMinRate(r float64) Option {
	return func(c *Config) { c.minRate = r }
}

// WithProbing turns the gossip failure detector on: probe period,
// per-probe ack timeout, and how long a suspicion may stand unrefuted.
// Zero values keep the respective default.
func WithProbing(every, timeout, suspect sim.Duration) Option {
	return func(c *Config) {
		c.probeEvery = every
		if timeout > 0 {
			c.probeTimeout = timeout
		}
		if suspect > 0 {
			c.suspectTimeout = suspect
		}
	}
}

// WithIndirectProbes sets the SWIM ping-req fan-out (0 disables the
// indirection — the false-suspicion ablation on lossy links).
func WithIndirectProbes(k int) Option {
	return func(c *Config) { c.indirectProbes = k }
}

// WithMigrateOnLeave selects the graceful-departure policy: live
// migration (true) or the preempt-and-reboot baseline (false).
func WithMigrateOnLeave(on bool) Option {
	return func(c *Config) { c.migrateOnLeave = on }
}

// WithUnpacedTransfers disables checkpoint-copy congestion control:
// every chunk blasts onto the management link immediately with the
// fixed doubling RTO — the Stampede ablation arm.
func WithUnpacedTransfers(on bool) Option {
	return func(c *Config) { c.unpacedTransfers = on }
}

// WithMgmtLink sets the management network's link rate, shared by
// gossip and checkpoint copies, and the checkpoint chunk size. Zero
// values keep the respective default (1 Gb/s, 8 MiB).
func WithMgmtLink(bitsPerSec float64, chunkMiB int) Option {
	return func(c *Config) {
		if bitsPerSec > 0 {
			c.mgmtBitsPerSec = bitsPerSec
		}
		if chunkMiB > 0 {
			c.migrateChunkMiB = chunkMiB
		}
	}
}

// NewCluster builds the cluster from the defaults plus options.
func NewCluster(opts ...Option) *Cluster {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return buildOn(sim.New(cfg.Board.Seed), cfg)
}

// ServiceOption tunes one service registration (RegisterService).
type ServiceOption func(*serviceOpts)

// WithMinWarm keeps at least k replicas of the service booted at all
// times, regardless of observed arrival rate.
func WithMinWarm(k int) ServiceOption {
	return func(o *serviceOpts) { o.minWarm = k }
}

// WithServicePolicy overrides the cluster's default placement policy
// for this service.
func WithServicePolicy(p Policy) ServiceOption {
	return func(o *serviceOpts) { o.policy = p }
}

// RegisterService adds a service to the cluster directory with
// per-service options; see Register for the underlying semantics.
func (c *Cluster) RegisterService(sc core.ServiceConfig, opts ...ServiceOption) *Entry {
	var o serviceOpts
	for _, opt := range opts {
		opt(&o)
	}
	return c.register(sc, o)
}
