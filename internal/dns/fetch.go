package dns

import (
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// Fetcher is the one client transaction every experiment measures
// (paper §3.3, Figure 9a; §3.3.2 for the refusals): resolve a name at a
// Jitsu directory, then GET from the answered address with what is left
// of the caller's budget. The fields are all that differs between a
// board, a fleet, a cluster and a federation; the sequence — a fresh
// resolver per fetch, rcode classification, remaining budget, elapsed
// time — is written here once, so comparing tiers means driving each
// with the same client.
type Fetcher struct {
	// From is the attachment the query leaves from, Server the tier's
	// directory.
	From   *netstack.Host
	Server netstack.IP
	// Retry is the resolver's retransmit policy (zero: one datagram);
	// Retries, when set, accumulates the retransmits each fetch paid.
	Retry   sim.Backoff
	Retries *uint64
	// Refused counts, and names the tier's error for, a response that
	// carries no usable answer: an rcode other than NOERROR, or NOERROR
	// without a record.
	Refused func(RCode) error
	// Route maps the answered address to the attachment that reaches it
	// and the (cluster, board) it names. Nil fetches from From and
	// reports (-1, -1).
	Route func(netstack.IP) (via *netstack.Host, cluster, board int, err error)
}

// Fetch resolves name and fetches path from the answer. done receives
// the serving cluster and board as Route named them (-1 when the fetch
// never got as far as a connection), the response, and the time since
// the call — never more than timeout.
func (f Fetcher) Fetch(name, path string, timeout sim.Duration, done func(cluster, board int, resp *netstack.HTTPResponse, elapsed sim.Duration, err error)) {
	ft := &fetch{Fetcher: f, resolver: Client{Host: f.From, Retry: f.Retry}, path: path,
		start: f.From.Eng.Now(), timeout: timeout, cluster: -1, board: -1, done: done}
	ft.resolver.Query(f.Server, name, TypeA, timeout, ft.answered)
}

// fetch is one Fetch in flight.
type fetch struct {
	Fetcher
	resolver       Client
	path           string
	start, timeout sim.Duration
	cluster, board int
	done           func(int, int, *netstack.HTTPResponse, sim.Duration, error)
}

func (ft *fetch) answered(m *Message, _ sim.Duration, err error) {
	if ft.Retries != nil {
		*ft.Retries += ft.resolver.Retries
	}
	if err == nil && (m.RCode != RCodeNoError || len(m.Answers) == 0) {
		err = ft.Refused(m.RCode)
	}
	if err != nil {
		ft.fetched(nil, 0, err)
		return
	}
	ip, via, cluster, board := m.Answers[0].A, ft.From, -1, -1
	if ft.Route != nil {
		if via, cluster, board, err = ft.Route(ip); err != nil {
			ft.fetched(nil, 0, err)
			return
		}
	}
	remaining := ft.timeout - (ft.From.Eng.Now() - ft.start)
	if remaining <= 0 {
		// netstack arms no deadline for timeout <= 0; fail now rather
		// than fetch unbounded.
		ft.fetched(nil, 0, netstack.ErrTimeout)
		return
	}
	ft.cluster, ft.board = cluster, board
	via.HTTPGet(ip, 80, ft.path, remaining, ft.fetched)
}

func (ft *fetch) fetched(resp *netstack.HTTPResponse, _ sim.Duration, err error) {
	ft.done(ft.cluster, ft.board, resp, ft.From.Eng.Now()-ft.start, err)
}
