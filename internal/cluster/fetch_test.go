package cluster

import (
	"errors"
	"testing"
	"time"

	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// The four tier clients — Board.FetchViaDNS, FleetClient, Client,
// FedClient — run one shared transaction (dns.Fetcher) and supply only
// their refusal error, counters and answer routing. This table drives
// every outcome of that transaction through each of them: first a real
// fetch against the tier's real directory, then its directory is
// replaced by a scripted one that answers whatever the case says.

// fetchResult is one fetch's outcome in the widest tier's shape.
type fetchResult struct {
	cluster, board int
	elapsed        sim.Duration
	err            error
	fired          bool
}

// tierUnderTest is one tier client behind a common face.
type tierUnderTest struct {
	name string
	eng  *sim.Engine
	// fetch issues one fetch; out-of-range indices a tier has no notion
	// of are reported as -2.
	fetch func(name string, timeout sim.Duration, res *fetchResult)
	// dirHosts[i]/dirSrvs[i] are the tier's directories, which the script
	// takes over.
	dirHosts []*netstack.Host
	dirSrvs  []*dns.Server
	// counters reads the client's ServFails, NXDomains, DNSRetries (0
	// for a counter the tier does not keep).
	counters func() [3]uint64
	// setRetry arms the client's DNS retransmits where the tier has them.
	setRetry func(sim.Backoff)

	// What the tier makes of each scripted outcome.
	servfailErr   error  // sentinel for SERVFAIL; nil = generic message
	errPrefix     string // "<prefix> <RCODE>" for generic refusals
	servfailCount uint64 // ServFails one refused fetch adds
	nxCount       uint64 // NXDomains one NXDOMAIN adds
	refusedBoard  int    // board index reported with a generic refusal
	mappable      netstack.IP
	mapsTo        [2]int // (cluster, board) reported for mappable
	unmappableErr string // "" = tier maps every address
	retries       bool
}

// script is the scripted directory: reply builds the response to one
// query (nil = stay silent).
type script struct {
	reply func(q *dns.Message) *dns.Message
}

func (s *script) takeOver(t *testing.T, host *netstack.Host, srv *dns.Server) {
	t.Helper()
	srv.Host.UnbindUDP(53)
	err := host.BindUDP(53, func(src netstack.IP, sport uint16, payload []byte) {
		q, err := dns.Decode(payload)
		if err != nil {
			return
		}
		if r := s.reply(q); r != nil {
			wire, err := r.Encode()
			if err != nil {
				t.Errorf("encode scripted reply: %v", err)
				return
			}
			host.SendUDP(src, 53, sport, wire)
		}
	})
	if err != nil {
		t.Fatalf("bind scripted directory: %v", err)
	}
}

func rcodeReply(rc dns.RCode, answer ...netstack.IP) func(*dns.Message) *dns.Message {
	return func(q *dns.Message) *dns.Message {
		m := &dns.Message{ID: q.ID, Response: true, RCode: rc, Questions: q.Questions}
		for _, ip := range answer {
			m.Answers = append(m.Answers, dns.RR{Name: q.Questions[0].Name, Type: dns.TypeA, Class: dns.ClassIN, TTL: 1, A: ip})
		}
		return m
	}
}

func tiersUnderTest() []*tierUnderTest {
	clientIP := netstack.IPv4(10, 0, 0, 9)
	dead := netstack.IPv4(10, 0, 0, 77) // on the edge subnet, nobody home

	b := core.New(core.WithSeed(1))
	b.Jitsu.Register(testService("alice", 20))
	bc := b.AddClient("laptop", clientIP)
	board := &tierUnderTest{
		name: "board", eng: b.Eng,
		fetch: func(name string, timeout sim.Duration, res *fetchResult) {
			b.FetchViaDNS(bc, name, "/", timeout, func(_ *netstack.HTTPResponse, d sim.Duration, err error) {
				*res = fetchResult{-2, -2, d, err, true}
			})
		},
		dirHosts: []*netstack.Host{b.NS}, dirSrvs: []*dns.Server{b.DNS},
		counters:  func() [3]uint64 { return [3]uint64{} },
		errPrefix: "core: dns", refusedBoard: -2,
		mappable: dead, mapsTo: [2]int{-2, -2},
	}

	fl := core.NewFleet(2, core.WithSeed(1))
	fl.RegisterEverywhere(testService("alice", 20))
	flc := fl.NewClient("laptop", clientIP)
	fleet := &tierUnderTest{
		name: "fleet", eng: fl.Eng(),
		fetch: func(name string, timeout sim.Duration, res *fetchResult) {
			flc.Fetch(name, "/", timeout, func(board int, _ *netstack.HTTPResponse, d sim.Duration, err error) {
				*res = fetchResult{-2, board, d, err, true}
			})
		},
		dirHosts:  []*netstack.Host{fl.Boards[0].NS, fl.Boards[1].NS},
		dirSrvs:   []*dns.Server{fl.Boards[0].DNS, fl.Boards[1].DNS},
		counters:  func() [3]uint64 { return [3]uint64{flc.ServFails} },
		errPrefix: "core: dns", servfailErr: core.ErrAllServFail, servfailCount: 2, refusedBoard: 0,
		mappable: dead, mapsTo: [2]int{-2, 0},
	}

	c := testCluster(2)
	c.RegisterService(testService("alice", 20))
	cl := c.NewClient("laptop", clientIP)
	clus := &tierUnderTest{
		name: "cluster", eng: c.Eng(),
		fetch: func(name string, timeout sim.Duration, res *fetchResult) {
			cl.Fetch(name, "/", timeout, func(board int, _ *netstack.HTTPResponse, d sim.Duration, err error) {
				*res = fetchResult{-2, board, d, err, true}
			})
		},
		dirHosts: []*netstack.Host{c.Boards[0].NS}, dirSrvs: []*dns.Server{c.Boards[0].DNS},
		counters:  func() [3]uint64 { return [3]uint64{cl.ServFails, 0, cl.DNSRetries} },
		setRetry:  func(p sim.Backoff) { cl.Retry = p },
		errPrefix: "cluster: dns", servfailErr: ErrClusterFull, servfailCount: 1, refusedBoard: -1,
		// An address the directory does not know is fetched via board 0.
		mappable: dead, mapsTo: [2]int{-2, 0}, retries: true,
	}

	f := NewFederation(WithClusters(2), WithMemberOptions(WithBoards(2), WithSeed(1)))
	f.RegisterService(testService("alice", 20))
	f.RunUntil(50 * time.Millisecond) // the registration's summary push reaches the root
	fc := f.NewClient("laptop", clientIP)
	fed := &tierUnderTest{
		name: "federation", eng: f.Eng(),
		fetch: func(name string, timeout sim.Duration, res *fetchResult) {
			fc.Fetch(name, "/", timeout, func(cluster, board int, _ *netstack.HTTPResponse, d sim.Duration, err error) {
				*res = fetchResult{cluster, board, d, err, true}
			})
		},
		dirHosts: []*netstack.Host{f.root.fr}, dirSrvs: []*dns.Server{f.root.srv},
		counters:  func() [3]uint64 { return [3]uint64{fc.ServFails, fc.NXDomains, fc.DNSRetries} },
		setRetry:  func(p sim.Backoff) { fc.Retry = p },
		errPrefix: "cluster: fed dns", servfailErr: ErrFederationFull, servfailCount: 1, nxCount: 1, refusedBoard: -1,
		// Second octet names cluster 1, third board 1; nobody holds .77.
		mappable: netstack.IPv4(10, 11, 101, 77), mapsTo: [2]int{1, 1},
		unmappableErr: "cluster: unmappable answer 10.0.0.77", retries: true,
	}
	return []*tierUnderTest{board, fleet, clus, fed}
}

func TestTierClientsShareOneFetch(t *testing.T) {
	const timeout = 5 * time.Second
	for _, tier := range tiersUnderTest() {
		t.Run(tier.name, func(t *testing.T) {
			run := func(name string) (fetchResult, [3]uint64) {
				t.Helper()
				var res fetchResult
				before := tier.counters()
				start := tier.eng.Now()
				tier.eng.At(start, func() { tier.fetch(name, timeout, &res) })
				tier.eng.RunUntil(start + 2*timeout)
				if !res.fired {
					t.Fatalf("%s: done never fired", name)
				}
				if res.elapsed > timeout {
					t.Errorf("%s: elapsed %v exceeds the caller's timeout %v", name, res.elapsed, timeout)
				}
				after := tier.counters()
				return res, [3]uint64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
			}
			wantBoard := func(what string, res fetchResult, cluster, board int) {
				t.Helper()
				if tier.name != "federation" {
					cluster = -2
				}
				if tier.name == "board" {
					board = -2
				}
				if res.cluster != cluster || res.board != board {
					t.Errorf("%s: reported (cluster %d, board %d), want (%d, %d)", what, res.cluster, res.board, cluster, board)
				}
			}

			// NOERROR + A, against the tier's real directory.
			res, delta := run("alice.family.name")
			if res.err != nil {
				t.Fatalf("real fetch: %v", res.err)
			}
			if tier.name != "board" && res.board < 0 || tier.name == "federation" && res.cluster < 0 {
				t.Errorf("real fetch reported (cluster %d, board %d)", res.cluster, res.board)
			}
			if delta != [3]uint64{} {
				t.Errorf("real fetch moved the refusal counters: %v", delta)
			}

			s := &script{}
			for i, h := range tier.dirHosts {
				s.takeOver(t, h, tier.dirSrvs[i])
			}

			// SERVFAIL: the tier's refusal, counted once per directory asked.
			s.reply = rcodeReply(dns.RCodeServFail)
			res, delta = run("alice.family.name")
			if tier.servfailErr != nil {
				if res.err != tier.servfailErr {
					t.Errorf("SERVFAIL: err = %v, want %v", res.err, tier.servfailErr)
				}
				wantBoard("SERVFAIL", res, -1, -1)
			} else if res.err == nil || res.err.Error() != tier.errPrefix+" SERVFAIL" {
				t.Errorf("SERVFAIL: err = %v", res.err)
			}
			if delta != [3]uint64{tier.servfailCount, 0, 0} {
				t.Errorf("SERVFAIL: counters moved by %v, want ServFails +%d only", delta, tier.servfailCount)
			}

			// NXDOMAIN and the empty NOERROR: generic errors under the
			// tier's prefix; only the federation counts NXDOMAINs.
			for _, c := range []struct {
				rc dns.RCode
				nx uint64
			}{{dns.RCodeNXDomain, tier.nxCount}, {dns.RCodeNoError, 0}} {
				s.reply = rcodeReply(c.rc)
				res, delta = run("alice.family.name")
				if want := tier.errPrefix + " " + c.rc.String(); res.err == nil || res.err.Error() != want {
					t.Errorf("%v without answer: err = %v, want %q", c.rc, res.err, want)
				}
				wantBoard(c.rc.String(), res, -1, tier.refusedBoard)
				if delta != [3]uint64{0, c.nx, 0} {
					t.Errorf("%v without answer: counters moved by %v, want NXDomains +%d only", c.rc, delta, c.nx)
				}
			}

			// An answer address that names no cluster/board.
			if tier.unmappableErr != "" {
				s.reply = rcodeReply(dns.RCodeNoError, netstack.IPv4(10, 0, 0, 77))
				res, delta = run("alice.family.name")
				if res.err == nil || res.err.Error() != tier.unmappableErr {
					t.Errorf("unmappable answer: err = %v, want %q", res.err, tier.unmappableErr)
				}
				wantBoard("unmappable answer", res, -1, -1)
				if delta != [3]uint64{} {
					t.Errorf("unmappable answer moved the counters: %v", delta)
				}
			}

			// HTTP timeout: the answer maps, but nobody is home. The
			// index the answer named is still reported, and the whole
			// fetch ends at the caller's deadline, not a fresh one.
			s.reply = rcodeReply(dns.RCodeNoError, tier.mappable)
			res, _ = run("alice.family.name")
			if !errors.Is(res.err, netstack.ErrTimeout) {
				t.Errorf("HTTP timeout: err = %v, want %v", res.err, netstack.ErrTimeout)
			}
			if res.elapsed != timeout {
				t.Errorf("HTTP timeout: elapsed %v, want exactly the caller's %v", res.elapsed, timeout)
			}
			wantBoard("HTTP timeout", res, tier.mapsTo[0], tier.mapsTo[1])

			// DNS timeout: a silent directory burns the whole budget; a
			// client with a retry policy pays (and counts) its retransmits.
			s.reply = func(*dns.Message) *dns.Message { return nil }
			if tier.setRetry != nil {
				tier.setRetry(dns.DefaultRetry())
			}
			res, delta = run("alice.family.name")
			if !errors.Is(res.err, netstack.ErrTimeout) {
				t.Errorf("DNS timeout: err = %v, want %v", res.err, netstack.ErrTimeout)
			}
			if res.elapsed != timeout {
				t.Errorf("DNS timeout: elapsed %v, want %v", res.elapsed, timeout)
			}
			wantBoard("DNS timeout", res, -1, tier.refusedBoard)
			wantRetries := uint64(0)
			if tier.retries {
				wantRetries = uint64(dns.DefaultRetry().Retries)
			}
			if delta != [3]uint64{0, 0, wantRetries} {
				t.Errorf("DNS timeout: counters moved by %v, want DNSRetries +%d only", delta, wantRetries)
			}
		})
	}
}
