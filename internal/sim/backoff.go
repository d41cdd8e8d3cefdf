package sim

import "math/rand"

// Backoff is the one retransmit schedule: ARP, TCP, the chunk sender and
// the evacuation reschedule take their timing from one, and so does a
// Requests entry — the resolver's queries, the federation root's
// delegations and a gossip agent's probes. The wait after send k (k
// retransmits already sent) is Initial·Factor^k, stretched by a uniform
// [0, Jitter) fraction so synchronised senders decorrelate
// deterministically; Retries bounds the retransmits. The zero value
// sends none, and a negative Retries reads as zero.
type Backoff struct {
	Initial        Duration
	Factor, Jitter float64
	Retries        int
}

// Next returns the wait after send k and whether retransmit k+1 is
// within the budget. Past it nothing is drawn and the wait comes back
// bare: a sender whose deadline ends the exchange arms nothing, one that
// waits out the last interval before giving up has its length.
func (b Backoff) Next(k int, r *rand.Rand) (Duration, bool) {
	ok := k < b.Retries
	d := float64(b.Initial)
	for range k {
		d *= b.Factor
	}
	if ok && b.Jitter > 0 {
		d += r.Float64() * b.Jitter * d
	}
	return Duration(d), ok
}
