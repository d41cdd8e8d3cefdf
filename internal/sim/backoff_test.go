package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The six retransmit schedules Backoff replaced, copied from their
// callers as they stood, each in its caller's own counting. Every one
// answers for send k (k retransmits already sent): the wait after it,
// whether retransmit k+1 follows that wait, and whether the caller
// waits at all — the resolver arms nothing past its budget, the other
// five wait one more interval and then give up.

// refDNS is the resolver's query.arm (dns/server.go): a float loop, jitter
// drawn from the engine RNG, nothing armed past the budget.
func refDNS(retries int, initial Duration, factor, jitter float64, attempt int, r *rand.Rand) (wait Duration, more, waits bool) {
	if retries <= 0 || attempt >= retries {
		return 0, false, false
	}
	if factor <= 0 {
		factor = 2
	}
	ivl := float64(initial)
	for i := 0; i < attempt; i++ {
		ivl *= factor
	}
	if jitter > 0 {
		ivl += r.Float64() * jitter * ivl
	}
	return Duration(ivl), true, true
}

// refDelegation is the federation root's pendingResolve.arm and
// onTimeout: tries counts transmissions, the timeout shifts per try, the
// budget is checked on expiry.
func refDelegation(timeout Duration, retries, tries int) (Duration, bool, bool) {
	return timeout << (tries - 1), !(tries > retries), true
}

// refARP is Host.sendARPRequest: a fixed RTO, attempt counts requests
// from 1, tries bounds them.
func refARP(rto Duration, tries, attempt int) (Duration, bool, bool) {
	return rto, !(attempt >= tries), true
}

// refTCP replays TCPConn.retransmit from the last reset: the rto field
// doubles in place on every firing that retransmits, retries counts the
// firings.
func refTCP(base Duration, maxRetries, k int) (Duration, bool, bool) {
	rto, retries := base, 0
	for range k {
		retries++
		rto *= 2
	}
	return rto, !(retries+1 > maxRetries), true
}

// refCC is cc.Sender.armTimer's doubling loop: tries counts the chunk's
// transmissions.
func refCC(rto Duration, retries, tries int) (Duration, bool, bool) {
	for i := 1; i < tries; i++ {
		rto *= 2
	}
	return rto, !(tries > retries), true
}

// refMigrate is the evacuation reschedule: a fixed delay, attempt counts
// tries from 1, maxAttempts bounds them.
func refMigrate(delay Duration, maxAttempts, attempt int) (Duration, bool, bool) {
	return delay, attempt < maxAttempts, true
}

// schedule is one caller: the Backoff it now builds and its reference,
// both for (initial, retries) at send k.
type schedule struct {
	name string
	b    func(initial Duration, retries int, factor, jitter float64) Backoff
	ref  func(initial Duration, retries int, factor, jitter float64, k int, r *rand.Rand) (Duration, bool, bool)
}

var schedules = []schedule{
	{"dns",
		func(in Duration, n int, f, j float64) Backoff {
			return Backoff{Initial: in, Factor: f, Jitter: j, Retries: n}
		},
		func(in Duration, n int, f, j float64, k int, r *rand.Rand) (Duration, bool, bool) {
			return refDNS(n, in, f, j, k, r)
		}},
	{"delegation",
		func(in Duration, n int, _, _ float64) Backoff { return Backoff{Initial: in, Factor: 2, Retries: n} },
		func(in Duration, n int, _, _ float64, k int, _ *rand.Rand) (Duration, bool, bool) {
			return refDelegation(in, max(n, 0), k+1) // NewFederation clamped a negative budget
		}},
	{"arp",
		func(in Duration, n int, _, _ float64) Backoff { return Backoff{Initial: in, Factor: 1, Retries: n} },
		func(in Duration, n int, _, _ float64, k int, _ *rand.Rand) (Duration, bool, bool) {
			return refARP(in, n+1, k+1)
		}},
	{"tcp",
		func(in Duration, n int, _, _ float64) Backoff { return Backoff{Initial: in, Factor: 2, Retries: n} },
		func(in Duration, n int, _, _ float64, k int, _ *rand.Rand) (Duration, bool, bool) {
			return refTCP(in, n, k)
		}},
	{"cc",
		func(in Duration, n int, _, _ float64) Backoff { return Backoff{Initial: in, Factor: 2, Retries: n} },
		func(in Duration, n int, _, _ float64, k int, _ *rand.Rand) (Duration, bool, bool) {
			return refCC(in, n, k+1)
		}},
	{"migrate",
		func(in Duration, n int, _, _ float64) Backoff { return Backoff{Initial: in, Factor: 1, Retries: n} },
		func(in Duration, n int, _, _ float64, k int, _ *rand.Rand) (Duration, bool, bool) {
			return refMigrate(in, n+1, k+1)
		}},
}

// checkAgainstRef runs one schedule's reference and its Backoff at send
// k, each on its own copy of one RNG stream, and compares the wait (when
// the caller waits), the give-up verdict and where the stream stands
// afterwards: Backoff is always handed the RNG, so a draw the reference
// does not make — jitter off, or past the budget — shows.
func checkAgainstRef(t *testing.T, s schedule, in Duration, n int, f, j float64, k int, seed int64) {
	t.Helper()
	r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	wantWait, wantMore, waits := s.ref(in, n, f, j, k, r1)
	gotWait, gotMore := s.b(in, n, f, j).Next(k, r2)
	what := func() string {
		return fmt.Sprintf("%s: Initial %v, Retries %d, Factor %v, Jitter %v, send %d", s.name, in, n, f, j, k)
	}
	if gotMore != wantMore {
		t.Fatalf("%s: more = %v, the old code says %v", what(), gotMore, wantMore)
	}
	if waits && gotWait != wantWait {
		t.Fatalf("%s: wait %v, the old code waited %v", what(), gotWait, wantWait)
	}
	if a, b := r1.Int63(), r2.Int63(); a != b {
		t.Fatalf("%s: the RNG stream moved differently from the old code's", what())
	}
}

// TestBackoffMatchesTheSchedulesItReplaced drives every caller's
// reference and Backoff with the values the callers use and with
// seeded streams of (Initial, Retries, k) around them.
func TestBackoffMatchesTheSchedulesItReplaced(t *testing.T) {
	byName := map[string]schedule{}
	for _, s := range schedules {
		byName[s.name] = s
	}
	// What the callers set: the hardened resolver, the root's default and
	// the benchmark's 50 ms × 4, WithWAN's max(100ms, 3·RTT) × 3 for the
	// wan20ms/wan50ms/wan100ms presets, ARP's three requests a second
	// apart, TCP's SYN and data RTOs × 6, the chunk sender's 50 ms floor
	// and 64× cap × 5, the evacuation's three tries a second apart.
	named := []struct {
		sched   string
		initial Duration
		retries int
		factor  float64
		jitter  float64
	}{
		{"dns", 200 * time.Millisecond, 3, 2, 0.5},
		{"dns", 200 * time.Millisecond, 3, 2, 0},
		{"delegation", 5 * time.Millisecond, 3, 2, 0},
		{"delegation", 50 * time.Millisecond, 4, 2, 0},
		{"delegation", 100 * time.Millisecond, 3, 2, 0},
		{"delegation", 150 * time.Millisecond, 3, 2, 0},
		{"delegation", 300 * time.Millisecond, 3, 2, 0},
		{"arp", time.Second, 2, 1, 0},
		{"tcp", time.Second, 6, 2, 0},
		{"tcp", 500 * time.Millisecond, 6, 2, 0},
		{"cc", 50 * time.Millisecond, 5, 2, 0},
		{"cc", 64 * 50 * time.Millisecond, 5, 2, 0},
		{"migrate", time.Second, 2, 1, 0},
	}
	for i, c := range named {
		for k := 0; k <= c.retries+1; k++ {
			checkAgainstRef(t, byName[c.sched], c.initial, c.retries, c.factor, c.jitter, k, int64(i*100+k))
		}
	}

	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 5000; i++ {
		s := schedules[rng.Intn(len(schedules))]
		in := Duration(1 + rng.Int63n(int64(4*time.Second)))
		n := rng.Intn(10) - 1
		k := rng.Intn(max(n, 0) + 3)
		f, j := 2.0, 0.0
		if s.name == "dns" {
			if rng.Intn(2) == 0 {
				f = 1 + 2*rng.Float64()
			}
			if rng.Intn(2) == 0 {
				j = rng.Float64()
			}
		}
		checkAgainstRef(t, s, in, n, f, j, k, rng.Int63())
	}
}

// TestBackoffZeroValueRetransmitsNothing: the zero value, and a
// negative budget, allow no retransmit and never touch the RNG.
func TestBackoffZeroValueRetransmitsNothing(t *testing.T) {
	for _, b := range []Backoff{{}, {Initial: time.Second, Factor: 2, Jitter: 0.5, Retries: -1}} {
		if wait, more := b.Next(0, nil); more || wait != b.Initial {
			t.Fatalf("%+v: Next(0) = %v, %v; want %v, false", b, wait, more, b.Initial)
		}
	}
}
