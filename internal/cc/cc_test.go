package cc

import (
	"testing"
	"time"

	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

func newTest() (*sim.Engine, *Controller) {
	eng := sim.New(1)
	return eng, New(eng, Config{MSS: 1000, initWindow: 4000})
}

// Acquire within the initial window grants immediately; past it, the
// grant waits for acks, in FIFO order.
func TestAcquireWindowing(t *testing.T) {
	_, c := newTest()
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		c.Acquire(1000, func() { order = append(order, i) })
	}
	if len(order) != 4 {
		t.Fatalf("initial grants = %v, want first 4", order)
	}
	if c.InFlight() != 4000 {
		t.Fatalf("inFlight = %d, want 4000", c.InFlight())
	}
	c.OnAck(1000, 10*time.Millisecond)
	if len(order) < 5 || order[4] != 4 {
		t.Fatalf("after ack grants = %v, want 4 appended", order)
	}
	c.OnAck(1000, 10*time.Millisecond)
	if len(order) != 6 {
		t.Fatalf("after 2 acks grants = %v, want all 6", order)
	}
}

// A request larger than the whole window must still be granted when
// nothing is in flight — otherwise a big chunk on a collapsed window
// deadlocks forever.
func TestOversizeRequestNoDeadlock(t *testing.T) {
	_, c := newTest()
	granted := false
	c.Acquire(100000, func() { granted = true })
	if !granted {
		t.Fatal("oversize request not granted on an idle window")
	}
}

// TestAcquireAckAllocatesNothing pins BenchmarkControllerAcquireAck: a
// grant shifts the queue down rather than slicing past its head, so the
// queue keeps its room and a paced chunk's window round trip allocates
// nothing once the queue has held one waiter. A granted waiter's slot is
// cleared, so the queue keeps no grant func alive either.
func TestAcquireAckAllocatesNothing(t *testing.T) {
	_, c := newTest()
	grant := func() {}
	c.Acquire(1000, grant)
	c.OnAck(1000, time.Millisecond)
	if got := testing.AllocsPerRun(100, func() {
		c.Acquire(1000, grant)
		c.OnAck(1000, time.Millisecond)
	}); got != 0 {
		t.Fatalf("an Acquire/OnAck pair allocates %.0f times, want 0", got)
	}
	if c.QueueLen() != 0 || c.queue[:1][0].grant != nil {
		t.Fatalf("the drained queue holds %d waiters, its first slot %+v", c.QueueLen(), c.queue[:1][0])
	}
}

// Slow start doubles per window; loss takes a Beta decrease; timeout
// collapses to minWindow.
func TestWindowDynamics(t *testing.T) {
	eng, c := newTest()
	start := c.Cwnd()
	for i := 0; i < 8; i++ {
		c.Acquire(1000, func() {})
		c.OnAck(1000, 10*time.Millisecond)
	}
	if c.Cwnd() <= start {
		t.Fatalf("cwnd did not grow in slow start: %d -> %d", start, c.Cwnd())
	}
	grown := c.Cwnd()
	eng.After(time.Second, func() {})
	eng.Run() // move the clock past the decrease cooldown
	c.Acquire(1000, func() {})
	c.OnLoss(1000)
	if want := int(float64(grown) * 0.7); c.Cwnd() > want+1 {
		t.Fatalf("cwnd after loss = %d, want <= %d", c.Cwnd(), want)
	}
	c.Acquire(1000, func() {})
	c.OnTimeout(1000)
	if c.Cwnd() != 1000 {
		t.Fatalf("cwnd after timeout = %d, want MinWindow 1000", c.Cwnd())
	}
	if c.Timeouts != 1 || c.Losses != 1 {
		t.Fatalf("counters: timeouts=%d losses=%d", c.Timeouts, c.Losses)
	}
}

// The RTO follows RFC 6298 (srtt + 4*rttvar) and doubles per
// back-to-back timeout until the next sample.
func TestRTOEstimator(t *testing.T) {
	_, c := newTest()
	if got := c.RTO(); got != 200*time.Millisecond {
		t.Fatalf("initial RTO = %v, want 200ms", got)
	}
	c.Acquire(1000, func() {})
	c.OnAck(1000, 40*time.Millisecond)
	// First sample: srtt = 40ms, rttvar = 20ms => RTO = 120ms.
	if got := c.RTO(); got != 120*time.Millisecond {
		t.Fatalf("RTO after first sample = %v, want 120ms", got)
	}
	c.Acquire(1000, func() {})
	c.OnTimeout(1000)
	if got := c.RTO(); got != 240*time.Millisecond {
		t.Fatalf("RTO after timeout = %v, want doubled 240ms", got)
	}
	c.Acquire(1000, func() {})
	c.OnAck(1000, 40*time.Millisecond)
	if got := c.RTO(); got >= 240*time.Millisecond {
		t.Fatalf("RTO did not reset after a valid sample: %v", got)
	}
	if c.SRTT() == 0 {
		t.Fatal("SRTT not tracked")
	}
}

// RTT samples far above the observed base trigger the delay-based
// decrease that keeps a throttled-but-lossless link from bufferbloat.
func TestDelayBackoff(t *testing.T) {
	eng, c := newTest()
	c.Acquire(1000, func() {})
	c.OnAck(1000, 5*time.Millisecond) // base RTT
	for i := 0; i < 4; i++ {
		c.Acquire(1000, func() {})
		c.OnAck(1000, 5*time.Millisecond)
	}
	before := c.Cwnd()
	eng.After(time.Second, func() {})
	eng.Run()
	c.Acquire(1000, func() {})
	c.OnAck(1000, 50*time.Millisecond) // 10x base: way past DelayFactor 4
	if c.DelayBackoffs != 1 {
		t.Fatalf("DelayBackoffs = %d, want 1", c.DelayBackoffs)
	}
	if c.Cwnd() >= before {
		t.Fatalf("cwnd did not back off on delay: %d -> %d", before, c.Cwnd())
	}
}

// Above ssthresh the window follows the cubic curve: growth resumes
// and eventually passes the pre-decrease Wmax.
func TestCubicRegrowth(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, Config{MSS: 1000, initWindow: 4000})
	for i := 0; i < 16; i++ {
		c.Acquire(1000, func() {})
		c.OnAck(1000, 10*time.Millisecond)
	}
	wmax := c.Cwnd()
	c.Acquire(1000, func() {})
	c.OnLoss(1000)
	after := c.Cwnd()
	if after >= wmax {
		t.Fatalf("no decrease: %d -> %d", wmax, after)
	}
	// Ack a window's worth every 10ms of virtual time for 4 seconds.
	for step := 0; step < 400; step++ {
		eng.After(10*time.Millisecond, func() {
			for i := 0; i < 8; i++ {
				c.Acquire(1000, func() {})
				c.OnAck(1000, 10*time.Millisecond)
			}
		})
		eng.Run()
	}
	if c.Cwnd() <= wmax {
		t.Fatalf("cubic regrowth stalled: wmax %d, now %d", wmax, c.Cwnd())
	}
}

// Release returns bytes without a congestion signal and unblocks
// waiters.
func TestRelease(t *testing.T) {
	_, c := newTest()
	granted := 0
	for i := 0; i < 5; i++ {
		c.Acquire(1000, func() { granted++ })
	}
	if granted != 4 {
		t.Fatalf("granted = %d, want 4", granted)
	}
	before := c.Cwnd()
	c.Release(1000)
	if granted != 5 {
		t.Fatalf("Release did not pump: granted = %d", granted)
	}
	if c.Cwnd() != before {
		t.Fatalf("Release moved cwnd: %d -> %d", before, c.Cwnd())
	}
}

// Register exports gauges and counters under the prefix.
func TestRegister(t *testing.T) {
	_, c := newTest()
	reg := obs.NewRegistry("test")
	c.Register(reg, "cc.b0")
	c.Acquire(1000, func() {})
	c.OnAck(1000, 10*time.Millisecond)
	snap := reg.Snapshot()
	foundGauge, foundCounter := false, false
	for _, g := range snap.Gauges {
		if g.Name == "cc.b0.cwnd_bytes" && g.Value > 0 {
			foundGauge = true
		}
	}
	for _, cn := range snap.Counters {
		if cn.Name == "cc.b0.acks" && cn.Value == 1 {
			foundCounter = true
		}
	}
	if !foundGauge || !foundCounter {
		t.Fatalf("missing cc rows in snapshot: %+v", snap)
	}
}
