package core

import (
	"errors"
	"fmt"

	"jitsu/internal/dns"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// Fleet implements §3.3.2's failover model: "Conventional failover
// models are supported — multiple ARM boards could be registered in the
// DNS and return SERVFAIL responses if they do not have resources to
// serve the traffic."
//
// Each board is an independent Jitsu host with its own simulation-level
// resources, all sharing one virtual-time engine (they sit on the same
// edge network). A resolving client walks the NS set: a board that
// cannot fit the service answers SERVFAIL and the client moves on.
type Fleet struct {
	Boards []*Board
}

// ErrAllServFail is returned when every board in the fleet refused.
var ErrAllServFail = errors.New("core: all boards returned SERVFAIL")

// NewFleet builds n boards that share one simulation engine (one
// coherent virtual time). Each board keeps its own bridge — they are
// separate hosts on the edge — and clients attach to every board's
// network through per-board attachments. Options apply to every board.
func NewFleet(n int, opts ...Option) *Fleet {
	f := &Fleet{}
	cfg := configFrom(opts)
	eng := sim.New(cfg.Seed)
	for i := 0; i < n; i++ {
		f.Boards = append(f.Boards, buildBoard(eng, cfg))
	}
	return f
}

// RegisterEverywhere registers the same service on every board (each
// board can summon its own replica).
func (f *Fleet) RegisterEverywhere(sc ServiceConfig) []*Service {
	var out []*Service
	for _, b := range f.Boards {
		out = append(out, b.Jitsu.Register(sc))
	}
	return out
}

// FleetClient is a resolver that walks the fleet's nameservers on
// SERVFAIL, the conventional failover the paper describes.
type FleetClient struct {
	fleet *Fleet
	// hosts[i] is this client's attachment on board i's network.
	hosts []*netstack.Host
	// ServFails counts boards that refused during lookups.
	ServFails uint64
}

// NewClient attaches a client to every board's network.
func (f *Fleet) NewClient(name string, ip netstack.IP) *FleetClient {
	fc := &FleetClient{fleet: f}
	for i, b := range f.Boards {
		fc.hosts = append(fc.hosts, b.AddClient(fmt.Sprintf("%s-b%d", name, i), ip))
	}
	return fc
}

// Fetch resolves name with failover and fetches path from whichever
// board accepted. done reports the serving board index. Every board in
// the walk gets the caller's full budget; elapsed runs from the first
// query.
func (fc *FleetClient) Fetch(name, path string, timeout sim.Duration, done func(board int, resp *netstack.HTTPResponse, elapsed sim.Duration, err error)) {
	if len(fc.fleet.Boards) == 0 {
		done(-1, nil, 0, ErrAllServFail)
		return
	}
	eng := fc.fleet.Eng()
	start := eng.Now()
	var try func(i int)
	try = func(i int) {
		if i >= len(fc.fleet.Boards) {
			done(-1, nil, eng.Now()-start, ErrAllServFail)
			return
		}
		dns.Fetcher{From: fc.hosts[i], Server: NSAddr, Refused: fc.refused}.Fetch(name, path, timeout,
			func(_, _ int, resp *netstack.HTTPResponse, _ sim.Duration, err error) {
				if err == errGoElsewhere {
					try(i + 1)
					return
				}
				done(i, resp, eng.Now()-start, err)
			})
	}
	try(0)
}

// errGoElsewhere is a board's SERVFAIL on its way to becoming the next
// step of the walk; it never reaches the caller.
var errGoElsewhere = errors.New("core: board returned SERVFAIL")

// refused counts a SERVFAIL — "to indicate the client should go
// elsewhere" — and sends the walk on; any other rcode ends it.
func (fc *FleetClient) refused(rc dns.RCode) error {
	if rc == dns.RCodeServFail {
		fc.ServFails++
		return errGoElsewhere
	}
	return dnsRefused(rc)
}

// Eng returns the fleet's shared engine.
func (f *Fleet) Eng() *sim.Engine { return f.Boards[0].Eng }

// RunAll drains the shared engine.
func (f *Fleet) RunAll() { f.Eng().Run() }
