// Package cc paces bulk copies on a shared management link. It holds
// the per-link congestion Controller and the one windowed chunk Sender
// (sender.go) that acquires window from it: migration pre-copy and
// federation shed/Transfer checkpoint copies both run that Sender,
// through the one copier in internal/cluster's xfer.go, each over its
// own socket.
// Unpaced, such a copy is exactly the uncoordinated bulk consumer that
// collapses a shared monitoring/control transport (the MDS2 failure
// mode): on a throttled management link it parks seconds of queue in
// front of the gossip probes and delegated resolutions sharing the
// wire.
//
// A Controller keeps three pieces of classical transport state, all on
// the simulation's virtual clock and therefore bit-deterministic:
//
//   - an RFC 6298 RTT estimator (EWMA srtt + mean deviation → RTO,
//     Karn-ambiguous samples excluded by the Sender);
//   - a CUBIC congestion window (Ha/Rhee/Xu): concave-then-convex
//     growth toward the window at the last congestion event, with
//     multiplicative decrease on loss — plus a delay-based backoff
//     (rtt beyond delayFactor × the observed base RTT counts as
//     congestion) so a lossless-but-throttled link converges to a
//     bounded standing queue instead of bufferbloat;
//   - in-flight byte accounting with a FIFO grant queue: a Sender
//     Acquires window before every chunk and settles each grant exactly
//     once via OnAck/OnTimeout/Release, so however many transfers share
//     one uplink, their aggregate in-flight bytes track one window.
//
// The package sits below the movers and beside the transports: it
// never touches the wire itself — a Sender is handed a send func — it
// only decides when the next chunk may go.
package cc

import (
	"math"
	"slices"
	"time"

	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// CUBIC's fixed constants.
const (
	// beta is the multiplicative-decrease factor.
	beta = 0.7
	// cubicC is the aggressiveness constant, in MSS/second³ like the
	// paper's.
	cubicC = 0.4
	// delayFactor arms the delay-based backoff: an RTT sample above
	// delayFactor × the minimum observed RTT is treated as a congestion
	// event (at most once per RTT).
	delayFactor = 4
)

// Config tunes one controller. The zero value takes every default.
type Config struct {
	// MSS is the chunk/segment size in bytes the window is scaled
	// against (default 256 KiB — the movers' chunk size).
	MSS int
	// initWindow is the initial congestion window in bytes (default
	// 4×MSS, RFC 6928 style).
	initWindow int
	// minWindow floors the window after timeouts (default 1×MSS).
	minWindow int
	// RTOMin/RTOMax clamp the retransmission timeout (defaults
	// 20ms / 10s).
	RTOMin sim.Duration
	RTOMax sim.Duration
	// InitRTO is the timeout before the first RTT sample (default
	// 200ms).
	InitRTO sim.Duration
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = 256 * 1024
	}
	if c.initWindow <= 0 {
		c.initWindow = 4 * c.MSS
	}
	if c.minWindow <= 0 {
		c.minWindow = c.MSS
	}
	if c.RTOMin <= 0 {
		c.RTOMin = 20 * time.Millisecond
	}
	if c.RTOMax <= 0 {
		c.RTOMax = 10 * time.Second
	}
	if c.InitRTO <= 0 {
		c.InitRTO = 200 * time.Millisecond
	}
	return c
}

// waiter is one queued window request.
type waiter struct {
	bytes int
	grant func()
}

// Controller paces every bulk transfer sharing one management uplink.
type Controller struct {
	eng *sim.Engine
	cfg Config

	// RTT estimator state (RFC 6298).
	srtt   sim.Duration
	rttvar sim.Duration
	minRTT sim.Duration
	hasRTT bool
	// rtoScale doubles per back-to-back timeout (Karn backoff) and
	// resets on the next valid sample.
	rtoScale int

	// CUBIC state, in float64 bytes.
	cwnd       float64
	ssthresh   float64
	wMax       float64
	epochStart sim.Duration // virtual instant of the last decrease; -1 = fresh epoch pending
	hasEpoch   bool
	lastDecr   sim.Duration // decrease cooldown anchor
	hasDecr    bool

	inFlight int
	queue    []waiter
	pumping  bool

	// Acks counts OnAck calls; Losses counts loss-signalled decreases;
	// Timeouts counts RTO collapses; DelayBackoffs counts decreases the
	// delay signal triggered.
	Acks          uint64
	Losses        uint64
	Timeouts      uint64
	DelayBackoffs uint64
}

// New builds a controller on the engine's virtual clock.
func New(eng *sim.Engine, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{eng: eng, cfg: cfg, rtoScale: 1}
	c.cwnd = float64(cfg.initWindow)
	c.ssthresh = math.Inf(1)
	return c
}

// Cwnd is the current congestion window in bytes.
func (c *Controller) Cwnd() int { return int(c.cwnd) }

// InFlight is the number of granted-but-unacknowledged bytes.
func (c *Controller) InFlight() int { return c.inFlight }

// SRTT is the smoothed RTT estimate (0 before the first sample).
func (c *Controller) SRTT() sim.Duration { return c.srtt }

// RTO is the current retransmission timeout: srtt + 4×rttvar clamped
// to [RTOMin, RTOMax], doubled per back-to-back timeout.
func (c *Controller) RTO() sim.Duration {
	rto := c.cfg.InitRTO
	if c.hasRTT {
		rto = c.srtt + 4*c.rttvar
	}
	for i := 1; i < c.rtoScale; i *= 2 {
		rto *= 2
	}
	if rto < c.cfg.RTOMin {
		rto = c.cfg.RTOMin
	}
	if rto > c.cfg.RTOMax {
		rto = c.cfg.RTOMax
	}
	return rto
}

// Acquire queues a window request for bytes and calls grant once the
// in-flight account has room (immediately when it already does).
// Grants are strictly FIFO so concurrent transfers sharing the link
// interleave deterministically. The granted bytes join the in-flight
// account and must be returned through exactly one of OnAck, OnLoss,
// OnTimeout or Release.
func (c *Controller) Acquire(bytes int, grant func()) {
	c.queue = append(c.queue, waiter{bytes: bytes, grant: grant})
	c.pump()
}

// pump grants queued waiters while the window has room. The head
// waiter is always granted when nothing is in flight, so a request
// larger than the whole window cannot deadlock.
func (c *Controller) pump() {
	if c.pumping {
		return
	}
	c.pumping = true
	for len(c.queue) > 0 {
		w := c.queue[0]
		if c.inFlight > 0 && float64(c.inFlight+w.bytes) > c.cwnd {
			break
		}
		c.queue = slices.Delete(c.queue, 0, 1) // a shift keeps the queue's capacity
		c.inFlight += w.bytes
		w.grant()
	}
	c.pumping = false
}

// Release returns granted bytes without any congestion signal (a
// transfer torn down mid-flight).
func (c *Controller) Release(bytes int) {
	c.release(bytes)
	c.pump()
}

func (c *Controller) release(bytes int) {
	c.inFlight -= bytes
	if c.inFlight < 0 {
		c.inFlight = 0
	}
}

// OnAck returns bytes to the window and feeds one RTT sample (rtt <= 0
// means "no sample" — the Karn rule for retransmitted chunks). The
// window grows per slow start below ssthresh and per the CUBIC curve
// above it; an RTT sample far above the base RTT triggers the
// delay-based decrease instead.
func (c *Controller) OnAck(bytes int, rtt sim.Duration) {
	c.Acks++
	c.release(bytes)
	now := c.eng.Now()
	if rtt > 0 {
		c.sample(rtt)
		c.rtoScale = 1
		if c.minRTT > 0 &&
			rtt > delayFactor*c.minRTT &&
			(!c.hasDecr || now-c.lastDecr > c.srtt) {
			c.DelayBackoffs++
			c.decrease(now)
			c.pump()
			return
		}
	}
	c.grow(bytes, now)
	c.pump()
}

// OnLoss signals a lost chunk (duplicate-ack style, not a timeout):
// the bytes leave the in-flight account and the window takes one
// multiplicative decrease (at most once per RTT).
func (c *Controller) OnLoss(bytes int) {
	c.Losses++
	c.release(bytes)
	now := c.eng.Now()
	if !c.hasDecr || now-c.lastDecr > c.srtt {
		c.decrease(now)
	}
	c.pump()
}

// OnTimeout signals an RTO expiry: the window collapses to minWindow,
// ssthresh remembers the Beta-scaled window, and the RTO doubles until
// the next valid sample.
func (c *Controller) OnTimeout(bytes int) {
	c.Timeouts++
	c.release(bytes)
	c.wMax = c.cwnd
	c.ssthresh = math.Max(c.cwnd*beta, float64(2*c.cfg.MSS))
	c.cwnd = float64(c.cfg.minWindow)
	c.hasEpoch = false
	c.lastDecr = c.eng.Now()
	c.hasDecr = true
	if c.rtoScale < 1<<16 {
		c.rtoScale *= 2
	}
	c.pump()
}

// sample folds one RTT measurement into the estimator.
func (c *Controller) sample(rtt sim.Duration) {
	if !c.hasRTT {
		c.hasRTT = true
		c.srtt = rtt
		c.rttvar = rtt / 2
		c.minRTT = rtt
		return
	}
	if rtt < c.minRTT {
		c.minRTT = rtt
	}
	diff := c.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + rtt) / 8
}

// decrease is one multiplicative congestion response (loss or delay).
func (c *Controller) decrease(now sim.Duration) {
	c.wMax = c.cwnd
	c.cwnd = math.Max(c.cwnd*beta, float64(c.cfg.minWindow))
	c.ssthresh = c.cwnd
	c.hasEpoch = false
	c.lastDecr = now
	c.hasDecr = true
}

// grow advances the window for bytes newly acknowledged.
func (c *Controller) grow(bytes int, now sim.Duration) {
	if c.cwnd < c.ssthresh {
		c.cwnd += float64(bytes) // slow start: one MSS per MSS acked
	} else {
		// CUBIC: W(t) = C·(t−K)³ + Wmax with K = ∛(Wmax·(1−β)/C),
		// computed in MSS units and scaled back to bytes.
		if !c.hasEpoch {
			c.hasEpoch = true
			c.epochStart = now
			if c.wMax < c.cwnd {
				c.wMax = c.cwnd
			}
		}
		mss := float64(c.cfg.MSS)
		t := (now - c.epochStart).Seconds()
		wmax := c.wMax / mss
		k := math.Cbrt(wmax * (1 - beta) / cubicC)
		target := (cubicC*math.Pow(t-k, 3) + wmax) * mss
		if target > c.cwnd {
			// Approach the cubic target over one RTT's worth of acks.
			c.cwnd += (target - c.cwnd) * float64(bytes) / c.cwnd
		} else {
			// TCP-friendly floor: keep probing gently below the curve.
			c.cwnd += 0.05 * float64(bytes)
		}
	}
}

// QueueLen is the number of ungranted window requests (tests, gauges).
func (c *Controller) QueueLen() int { return len(c.queue) }

// Register exports the controller's live state into reg under prefix:
// cwnd/in-flight/srtt-µs/rto-µs gauges and ack/loss/timeout/
// delay-backoff counters — the cc.* rows the Stampede experiment and
// jitsud -stats-every surface.
func (c *Controller) Register(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+".cwnd_bytes", func() int64 { return int64(c.cwnd) })
	reg.GaugeFunc(prefix+".inflight_bytes", func() int64 { return int64(c.inFlight) })
	reg.GaugeFunc(prefix+".srtt_us", func() int64 { return int64(c.srtt / time.Microsecond) })
	reg.GaugeFunc(prefix+".rto_us", func() int64 { return int64(c.RTO() / time.Microsecond) })
	reg.CounterFunc(prefix+".acks", func() uint64 { return c.Acks })
	reg.CounterFunc(prefix+".losses", func() uint64 { return c.Losses })
	reg.CounterFunc(prefix+".timeouts", func() uint64 { return c.Timeouts })
	reg.CounterFunc(prefix+".delay_backoffs", func() uint64 { return c.DelayBackoffs })
}
