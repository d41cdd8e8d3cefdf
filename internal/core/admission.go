package core

import "jitsu/internal/sim"

// Per-trigger admission policy. Every firing passes the memory gate,
// but a raw SYN that finds its service reaped starts a launch whenever
// memory allows, so a SYN flood hammering one service would reboot it
// at every reap. A deterministic token bucket per service caps how
// often a SYN may *start a launch*; warm traffic and in-flight boots
// are never throttled.

// tokenBucket is a sim-time token bucket: rate tokens/second, capped at
// burst. Deterministic — it reads nothing but virtual time.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   sim.Duration
}

func newTokenBucket(rate float64, burst int, now sim.Duration) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: now}
}

// take refills by elapsed virtual time and consumes one token; false
// means the caller is over its admission rate.
func (tb *tokenBucket) take(now sim.Duration) bool {
	if now > tb.last {
		tb.tokens += tb.rate * (now - tb.last).Seconds()
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}

// admit reports whether svc may start one more SYN-triggered launch now:
// the SYN trigger's per-service bucket, at the board's synLaunchRate.
func (t *synTrigger) admit(svc *Service) bool {
	cfg, now := t.j.board.Cfg, t.j.board.Eng.Now()
	tb := t.buckets[svc]
	if tb == nil {
		tb = newTokenBucket(cfg.synLaunchRate, cfg.synLaunchBurst, now)
		t.buckets[svc] = tb
	}
	return tb.take(now)
}
