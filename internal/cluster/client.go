package cluster

import (
	"errors"
	"fmt"

	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// ErrClusterFull is returned when the scheduler could not place the
// query on any board. Unlike the Fleet baseline, the client learns this
// from a single SERVFAIL — there is no NS set to walk.
var ErrClusterFull = errors.New("cluster: no board can take the service")

// Client is a resolver+fetcher against the cluster. Like the Fleet
// client it holds an attachment on every board's network (the boards
// are separate hosts on the edge), but it only ever queries board 0's
// directory: the answer's replica IP tells it which board to talk to.
// When a board joins after the client was created, the cluster attaches
// the client to the newcomer's network too.
type Client struct {
	c     *Cluster
	name  string
	ip    netstack.IP
	hosts []*netstack.Host // indexed by board id; nil until attached
	// tier is what this client supplies to the shared transaction, built
	// once; Fetch adds the current Retry.
	tier dns.Fetcher
	// Retry, when non-zero, makes every resolution retransmit lost
	// queries with backoff (dns.DefaultRetry() is the hardened setting);
	// the zero value resolves with a single datagram — the ablation.
	Retry sim.Backoff
	// ServFails counts cluster-wide refusals observed by this client;
	// DNSRetries the query retransmits its resolver paid.
	ServFails  uint64
	DNSRetries uint64
}

// NewClient attaches a client to every current board's network.
func (c *Cluster) NewClient(name string, ip netstack.IP) *Client {
	cl := &Client{c: c, name: name, ip: ip}
	for _, m := range c.members {
		cl.attach(m.ID)
	}
	c.clients = append(c.clients, cl)
	cl.tier = dns.Fetcher{From: cl.hosts[0], Server: core.NSAddr, Retries: &cl.DNSRetries,
		Refused: cl.refused, Route: cl.route}
	return cl
}

// attach wires the client onto board id's edge network (idempotent).
func (cl *Client) attach(id int) {
	for len(cl.hosts) <= id {
		cl.hosts = append(cl.hosts, nil)
	}
	if cl.hosts[id] == nil {
		cl.hosts[id] = cl.c.Boards[id].AddClient(fmt.Sprintf("%s-b%d", cl.name, id), cl.ip)
	}
}

// Host returns the client's attachment on board i.
func (cl *Client) Host(i int) *netstack.Host {
	cl.attach(i)
	return cl.hosts[i]
}

// Fetch resolves name at the cluster directory and fetches path from
// the board the scheduler picked. done reports the serving board index
// (-1 on refusal or error).
func (cl *Client) Fetch(name, path string, timeout sim.Duration, done func(board int, resp *netstack.HTTPResponse, elapsed sim.Duration, err error)) {
	t := cl.tier
	t.Retry = cl.Retry
	t.Fetch(name, path, timeout, func(_, board int, resp *netstack.HTTPResponse, elapsed sim.Duration, err error) {
		done(board, resp, elapsed, err)
	})
}

// refused counts the directory's SERVFAIL as the cluster-wide refusal
// it is; any other rcode is just an error.
func (cl *Client) refused(rc dns.RCode) error {
	if rc == dns.RCodeServFail {
		cl.ServFails++
		return ErrClusterFull
	}
	return fmt.Errorf("cluster: dns %v", rc)
}

// route finds the board behind the answered replica address (board 0
// when the directory no longer knows the address) and the client's
// attachment on that board's network.
func (cl *Client) route(ip netstack.IP) (*netstack.Host, int, int, error) {
	board := 0
	if p, ok := cl.c.dir.byIP[ip]; ok {
		board = p.Board
	}
	return cl.Host(board), 0, board, nil
}
