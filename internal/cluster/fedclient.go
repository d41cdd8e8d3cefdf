package cluster

import (
	"errors"
	"fmt"

	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// ErrFederationFull is returned when no cluster in the federation could
// take the query (the root's SERVFAIL, after any spill attempt).
var ErrFederationFull = errors.New("cluster: no cluster can take the service")

// FedClient resolves names at the federation root and fetches from
// whichever cluster/board the answer names. The answer address encodes
// the owner — second octet the cluster, third the board — so one
// resolution tells the client exactly where to connect; per-cluster
// fetch attachments are created lazily on first use.
type FedClient struct {
	f     *Federation
	name  string
	ip    netstack.IP
	front *netstack.Host
	sub   []*Client // per-cluster attachments, indexed by cluster id
	// tier is what this client supplies to the shared transaction, built
	// once; Fetch adds the current Retry.
	tier dns.Fetcher

	// Retry, when non-zero, hardens the root resolution against a lossy
	// front network (zero value = single datagram, the ablation).
	Retry sim.Backoff
	// ServFails counts federation-wide refusals observed by this
	// client; NXDomains counts lookups of names no cluster owns;
	// DNSRetries the root-query retransmits paid.
	ServFails  uint64
	NXDomains  uint64
	DNSRetries uint64
}

// NewClient attaches a client to the federation's front network.
func (f *Federation) NewClient(name string, ip netstack.IP) *FedClient {
	fc := &FedClient{f: f, name: name, ip: ip, sub: make([]*Client, len(f.members))}
	nic := netsim.NewNIC(f.eng, name+"-front", netsim.MACFor(0xB300+len(f.clients)))
	f.front.ConnectNIC(nic, core.ExtLatency, core.ExtBitsPerSec)
	fc.front = netstack.NewHost(f.eng, name+"-front", nic, ip, netstack.LinuxNativeProfile())
	f.clients = append(f.clients, fc)
	fc.tier = dns.Fetcher{From: fc.front, Server: FedRootAddr, Retries: &fc.DNSRetries,
		Refused: fc.refused, Route: fc.route}
	return fc
}

// cluster returns (building on first use) the client's attachment to
// member cid's boards.
func (fc *FedClient) cluster(cid int) *Client {
	for len(fc.sub) <= cid {
		fc.sub = append(fc.sub, nil)
	}
	if fc.sub[cid] == nil {
		fc.sub[cid] = fc.f.members[cid].Cluster.NewClient(fmt.Sprintf("%s-c%d", fc.name, cid), fc.ip)
	}
	return fc.sub[cid]
}

// Fetch resolves name at the federation root and fetches path from the
// cluster/board the delegated answer names. done reports the serving
// cluster and board (-1 on refusal or error).
func (fc *FedClient) Fetch(name, path string, timeout sim.Duration, done func(cluster, board int, resp *netstack.HTTPResponse, elapsed sim.Duration, err error)) {
	t := fc.tier
	t.Retry = fc.Retry
	t.Fetch(name, path, timeout, done)
}

// refused counts the root's SERVFAIL as the federation-wide refusal it
// is and its NXDOMAIN as a name no cluster owns.
func (fc *FedClient) refused(rc dns.RCode) error {
	switch rc {
	case dns.RCodeServFail:
		fc.ServFails++
		return ErrFederationFull
	case dns.RCodeNXDomain:
		fc.NXDomains++
	}
	return fmt.Errorf("cluster: fed dns %v", rc)
}

// route reads the owner out of the answered address — second octet the
// cluster, third the board — and attaches to that board's network.
func (fc *FedClient) route(ip netstack.IP) (*netstack.Host, int, int, error) {
	cid, board := int(ip[1])-10, int(ip[2])-100
	if cid < 0 || cid >= len(fc.f.members) || board < 0 {
		return nil, -1, -1, fmt.Errorf("cluster: unmappable answer %v", ip)
	}
	return fc.cluster(cid).Host(board), cid, board, nil
}
