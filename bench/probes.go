package main

import (
	"fmt"
	"runtime"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/cc"
	"jitsu/internal/cluster"
	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
	"jitsu/internal/wire"
	"jitsu/internal/xen"
	"jitsu/internal/xenstore"
)

// A probe drives one layer's exported entry points in isolation, on
// inputs shaped like the workloads', and times them on the host clock.
// Probe numbers bound what a change to that layer can save end to end:
// probe ns x the workload's count of that operation / the workload's
// host time.

// probeFloor is how long each probe's measured batch runs at least.
const probeFloor = 300 * time.Millisecond

// probeSink keeps results alive so the compiler cannot drop the work.
var probeSink int

// measure sizes a batch of op to run at least floor, then reports the
// cost of one op in that batch: host nanoseconds and heap allocations.
func measure(floor time.Duration, op func()) (ns, allocs float64) {
	n := 1
	for {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if el >= floor || n >= 1<<30 {
			return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
		grow := 100.0
		if el > 0 {
			grow = min(100, max(2, 1.2*float64(floor)/float64(el)))
		}
		n = int(float64(n) * grow)
	}
}

type probe struct {
	name string
	// nsOnly probes report no allocation row (the registry has none).
	nsOnly bool
	// setup builds the probe's fixture and returns the operation.
	setup func() func()
}

// runProbes measures every probe for at least floor each.
func runProbes(floor time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, p := range probes {
		ns, allocs := measure(floor, p.setup())
		out[p.name+"_ns"] = ns
		if !p.nsOnly {
			out[p.name+"_allocs"] = allocs
		}
	}
	return out
}

// twoHosts wires two stacks to one bridge, the shape of a client and a
// guest on a board's xenbr0.
func twoHosts(eng *sim.Engine) (a, b *netstack.Host) {
	br := netsim.NewBridge(eng, "br", 10*time.Microsecond)
	mk := func(id int, ip netstack.IP) *netstack.Host {
		nic := netsim.NewNIC(eng, fmt.Sprintf("nic%d", id), netsim.MACFor(id))
		br.ConnectNIC(nic, 20*time.Microsecond, 0)
		return netstack.NewHost(eng, fmt.Sprintf("host%d", id), nic, ip, netstack.LinuxNativeProfile())
	}
	return mk(1, netstack.IPv4(10, 0, 0, 1)), mk(2, netstack.IPv4(10, 0, 0, 2))
}

// populatedStore returns a store holding about n nodes laid out like
// the toolstack's records: /local/domain/<id>/<key>.
func populatedStore(n int) *xenstore.Store {
	st := xenstore.NewStore(xenstore.JitsuReconciler{})
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/local/domain/%d/key%d", i/8, i%8)
		if err := st.Write(xenstore.Dom0, nil, path, "v"); err != nil {
			panic(fmt.Sprintf("bench: populate store: %v", err))
		}
	}
	return st
}

// txProbe is Begin + 8 Writes + Commit on a store of n nodes: the
// toolstack's domain-record transaction. Begin's cost grows with n.
func txProbe(n int) func() func() {
	return func() func() {
		st := populatedStore(n)
		return func() {
			tx := st.Begin(xenstore.Dom0)
			for k := 0; k < 8; k++ {
				_ = st.Write(xenstore.Dom0, tx, "/local/domain/probe/key"+string(rune('0'+k)), "v")
			}
			if err := tx.Commit(); err != nil {
				panic(fmt.Sprintf("bench: tx probe commit: %v", err))
			}
		}
	}
}

// createDestroyProbe is one domain built and torn down through the
// toolstack with resident other domains already on the board.
func createDestroyProbe(resident int) func() func() {
	return func() func() {
		eng := sim.New(1)
		hyp := xen.NewHypervisor(eng, xenstore.NewStore(xenstore.JitsuReconciler{}), xen.CubieboardARM(), 768)
		ts := xen.NewToolstack(hyp, xen.OptimisedOpts())
		for i := 0; i < resident; i++ {
			ts.CreateDomain(xen.DomainConfig{Name: fmt.Sprintf("res%d", i), Kind: xen.GuestUnikernel, MemMiB: 16, ImageMiB: 1},
				func(_ *xen.Domain, err error) {
					if err != nil {
						panic(fmt.Sprintf("bench: resident domain: %v", err))
					}
				})
			eng.Run()
		}
		return func() {
			ts.CreateDomain(xen.DomainConfig{Name: "probe", Kind: xen.GuestUnikernel, MemMiB: 16, ImageMiB: 1},
				func(d *xen.Domain, err error) {
					if err != nil {
						panic(fmt.Sprintf("bench: create probe domain: %v", err))
					}
					ts.DestroyDomain(d.ID, func(error) {})
				})
			eng.Run()
		}
	}
}

// statsCluster is the operator_wire deployment without the script: 4
// boards, 64 registered services.
func statsCluster() *cluster.Cluster {
	c := cluster.NewCluster(cluster.WithBoards(wireBoards), cluster.WithSeed(1))
	for i := 0; i < wireServices; i++ {
		cfg, _ := siteConfig(i, c.Cfg.Board.Zone, coldMemMiB, 0)
		c.RegisterService(cfg)
	}
	return c
}

func registerFrame() []byte {
	cfg, _ := siteConfig(0, "family.name", coldMemMiB, 0)
	cfg.Image.App = nil
	buf, err := wire.Append(nil, byte(wire.Version), wire.TRegisterReq, 7, api.RegisterRequest{Config: cfg})
	if err != nil {
		panic(fmt.Sprintf("bench: encode register: %v", err))
	}
	return buf
}

var probes = []probe{
	{name: "sim.probe.sched_pop", setup: func() func() {
		// 1 k events pending far ahead, as in the cluster workloads;
		// each op schedules one near event and pops it.
		eng := sim.New(1)
		for i := 0; i < 1000; i++ {
			eng.At(time.Hour+sim.Duration(i), func() {})
		}
		fn := func() { probeSink++ }
		return func() {
			eng.After(time.Microsecond, fn)
			eng.Step()
		}
	}},
	{name: "sim.probe.cancel", nsOnly: true, setup: func() func() {
		// The retry-timer pattern: arm a timeout, cancel it.
		eng := sim.New(1)
		fn := func() {}
		return func() { eng.Cancel(eng.After(time.Second, fn)) }
	}},
	{name: "netsim.probe.link_frame", setup: func() func() {
		eng := sim.New(1)
		a := netsim.NewNIC(eng, "a", netsim.MACFor(1))
		b := netsim.NewNIC(eng, "b", netsim.MACFor(2))
		b.SetHandler(func(f []byte) { probeSink += len(f) })
		netsim.Attach(eng, a, b, 20*time.Microsecond, 100e6)
		frame := make([]byte, 128)
		return func() {
			_ = a.Send(frame)
			eng.Run()
		}
	}},
	{name: "netsim.probe.bridge_frame", setup: func() func() {
		eng := sim.New(1)
		br := netsim.NewBridge(eng, "br", 10*time.Microsecond)
		nics := make([]*netsim.NIC, 3)
		for i := range nics {
			nics[i] = netsim.NewNIC(eng, fmt.Sprintf("n%d", i), netsim.MACFor(i+1))
			nics[i].SetHandler(func(f []byte) { probeSink += len(f) })
			br.ConnectNIC(nics[i], 20*time.Microsecond, 0)
		}
		// Ethernet header: dst nic1, src nic0. One flood teaches the
		// bridge where nic0 is; a reply teaches it nic1.
		frame := make([]byte, 128)
		copy(frame[0:6], nics[1].Addr[:])
		copy(frame[6:12], nics[0].Addr[:])
		back := make([]byte, 128)
		copy(back[0:6], nics[0].Addr[:])
		copy(back[6:12], nics[1].Addr[:])
		_ = nics[0].Send(frame)
		_ = nics[1].Send(back)
		eng.Run()
		return func() {
			_ = nics[0].Send(frame)
			eng.Run()
		}
	}},
	{name: "netstack.probe.udp_rt", setup: func() func() {
		eng := sim.New(1)
		a, b := twoHosts(eng)
		_ = b.BindUDP(7, func(src netstack.IP, port uint16, p []byte) { b.SendUDP(src, 7, port, p) })
		_ = a.BindUDP(9000, func(_ netstack.IP, _ uint16, p []byte) { probeSink += len(p) })
		payload := make([]byte, 48)
		return func() {
			a.SendUDP(b.IP, 9000, 7, payload)
			eng.Run()
		}
	}},
	{name: "netstack.probe.tcp_conn", setup: func() func() {
		// One short connection: dial, one send, close — a fetch's
		// transport without the HTTP on top.
		eng := sim.New(1)
		a, b := twoHosts(eng)
		_, _ = b.ListenTCP(80, func(c *netstack.TCPConn) {
			c.OnData(func(p []byte) {
				probeSink += len(p)
				c.Close()
			})
		})
		payload := []byte("x")
		return func() {
			a.DialTCP(b.IP, 80, func(c *netstack.TCPConn, err error) {
				if err != nil {
					panic(fmt.Sprintf("bench: tcp probe dial: %v", err))
				}
				_ = c.Send(payload)
				c.Close()
			})
			eng.Run()
		}
	}},
	{name: "netstack.probe.http_get", setup: func() func() {
		eng := sim.New(1)
		a, b := twoHosts(eng)
		_, body := siteConfig(0, "family.name", coldMemMiB, 0)
		_, _ = b.ServeHTTP(80, func(*netstack.HTTPRequest) *netstack.HTTPResponse {
			return &netstack.HTTPResponse{Status: 200, Body: body}
		})
		return func() {
			a.HTTPGet(b.IP, 80, "/", fetchTimeout, func(resp *netstack.HTTPResponse, _ sim.Duration, err error) {
				if err != nil || resp.Status != 200 {
					panic(fmt.Sprintf("bench: http probe: %v", err))
				}
			})
			eng.Run()
		}
	}},
	{name: "dns.probe.serve_hit", setup: func() func() { return dnsServeProbe(false) }},
	{name: "dns.probe.serve_miss", setup: func() func() { return dnsServeProbe(true) }},
	{name: "dns.probe.codec", setup: func() func() {
		msg := &dns.Message{ID: 7, Response: true,
			Questions: []dns.Question{{Name: "svc000.family.name", Type: dns.TypeA, Class: dns.ClassIN}},
			Answers:   []dns.RR{{Name: "svc000.family.name", Type: dns.TypeA, Class: dns.ClassIN, TTL: 10, A: netstack.IPv4(10, 0, 0, 20)}}}
		var buf []byte
		return func() {
			var err error
			if buf, err = msg.AppendEncode(buf[:0]); err != nil {
				panic(fmt.Sprintf("bench: dns encode: %v", err))
			}
			m, err := dns.Decode(buf)
			if err != nil {
				panic(fmt.Sprintf("bench: dns decode: %v", err))
			}
			probeSink += len(m.Answers)
		}
	}},
	{name: "xenstore.probe.tx_n100", setup: txProbe(100)},
	{name: "xenstore.probe.tx_n1k", setup: txProbe(1000)},
	{name: "xenstore.probe.tx_n10k", setup: txProbe(10000)},
	{name: "xenstore.probe.read", nsOnly: true, setup: func() func() {
		// A plain lookup beside the transaction sizes: a tree that makes
		// Begin cheap but lookups dearer shows here.
		st := populatedStore(1000)
		return func() {
			v, err := st.Read(xenstore.Dom0, nil, "/local/domain/60/key3")
			if err != nil {
				panic(fmt.Sprintf("bench: read probe: %v", err))
			}
			probeSink += len(v)
		}
	}},
	{name: "xenstore.probe.conflict_replay", setup: func() func() {
		// Two transactions write one leaf; the loser's commit comes
		// back ErrAgain and it redoes its work from Begin — the retry
		// the toolstack pays under parallel domain builds.
		st := populatedStore(1000)
		const leaf = "/local/domain/60/key3"
		return func() {
			loser, winner := st.Begin(xenstore.Dom0), st.Begin(xenstore.Dom0)
			_ = st.Write(xenstore.Dom0, winner, leaf, "w")
			_ = st.Write(xenstore.Dom0, loser, leaf, "l")
			if err := winner.Commit(); err != nil {
				panic(fmt.Sprintf("bench: conflict probe winner: %v", err))
			}
			if err := loser.Commit(); err != xenstore.ErrAgain {
				panic(fmt.Sprintf("bench: conflict probe loser committed: %v", err))
			}
			replay := st.Begin(xenstore.Dom0)
			_ = st.Write(xenstore.Dom0, replay, leaf, "l")
			if err := replay.Commit(); err != nil {
				panic(fmt.Sprintf("bench: conflict probe replay: %v", err))
			}
		}
	}},
	{name: "xen.probe.create_destroy_r0", setup: createDestroyProbe(0)},
	{name: "xen.probe.create_destroy_r32", setup: createDestroyProbe(32)},
	{name: "core.probe.register", setup: func() func() {
		// Register beside cold_storm's 200 services, then deregister so
		// the directory stays that size.
		b := core.New(core.WithSeed(1))
		for i := 0; i < coldServices; i++ {
			cfg, _ := siteConfig(i, b.Cfg.Zone, coldMemMiB, coldIdle)
			b.Jitsu.Register(cfg)
		}
		cfg, _ := siteConfig(coldServices, b.Cfg.Zone, coldMemMiB, coldIdle)
		return func() { b.Jitsu.Deregister(b.Jitsu.Register(cfg)) }
	}},
	{name: "cluster.probe.place", setup: func() func() {
		views := make([]cluster.BoardView, 16)
		for i := range views {
			views[i] = cluster.BoardView{Index: i, FreeMemMiB: 768 - 96*(i%8), GuestDomains: i % 8, NeedMiB: 96}
		}
		pol := cluster.LeastLoaded{}
		return func() { probeSink += pol.Pick(views) }
	}},
	{name: "cluster.probe.stats", setup: func() func() {
		ctl := statsCluster().API()
		return func() { probeSink += len(ctl.Stats(api.StatsRequest{}).Services) }
	}},
	{name: "cc.probe.acquire_ack", setup: func() func() {
		eng := sim.New(1)
		ctrl := cc.New(eng, cc.Config{})
		const chunk = 256 * 1024
		grant := func() { probeSink++ }
		return func() {
			ctrl.Acquire(chunk, grant)
			ctrl.OnAck(chunk, time.Millisecond)
		}
	}},
	{name: "wire.probe.encode_register", setup: func() func() {
		cfg, _ := siteConfig(0, "family.name", coldMemMiB, 0)
		cfg.Image.App = nil
		req := api.RegisterRequest{Config: cfg}
		var buf []byte
		return func() {
			var err error
			if buf, err = wire.Append(buf[:0], byte(wire.Version), wire.TRegisterReq, 7, req); err != nil {
				panic(fmt.Sprintf("bench: encode register: %v", err))
			}
		}
	}},
	{name: "wire.probe.decode_register", setup: func() func() {
		buf := registerFrame()
		return func() {
			_, _, _, _, n, err := wire.Decode(buf)
			if err != nil {
				panic(fmt.Sprintf("bench: decode register: %v", err))
			}
			probeSink += n
		}
	}},
	{name: "wire.probe.stats_roundtrip", setup: func() func() {
		// The viewer's Stats verb end to end: frame out, snapshot of
		// every registry, frame back over the management network.
		c := statsCluster()
		if _, err := c.ServeWire(cluster.WireConfig{Anonymous: api.ScopeReadOnly}); err != nil {
			panic(fmt.Sprintf("bench: serve wire: %v", err))
		}
		cl, err := wire.DialSession(c.Eng(), c.AttachMgmtHost("probe", 200), c.MgmtHost(0).IP, wire.DefaultPort, wire.SessionConfig{})
		if err != nil {
			panic(fmt.Sprintf("bench: dial: %v", err))
		}
		return func() {
			resp := cl.Stats(api.StatsRequest{})
			if resp.Err != nil {
				panic(fmt.Sprintf("bench: stats probe: %v", resp.Err))
			}
			probeSink += len(resp.Services)
		}
	}},
	{name: "obs.probe.snapshot", setup: func() func() {
		b := core.New(core.WithSeed(1))
		return func() { probeSink += len(b.Reg.Snapshot().Counters) }
	}},
	{name: "obs.probe.span", setup: func() func() {
		tr := obs.NewTracer(1 << 12)
		return func() { tr.End(tr.Begin(0, "bench", "probe")) }
	}},
}

// dnsServeProbe answers one cached query through the server's
// transport-independent path; with miss set the answer cache is dropped
// first, as a registration or a migration switchover does.
func dnsServeProbe(miss bool) func() {
	b := core.New(core.WithSeed(1))
	cfg, _ := siteConfig(0, b.Cfg.Zone, coldMemMiB, 0)
	// A running service answers from the cache without summoning.
	b.Jitsu.Register(cfg)
	query, err := (&dns.Message{ID: 7, RecursionDesired: true,
		Questions: []dns.Question{{Name: cfg.Name, Type: dns.TypeA, Class: dns.ClassIN}}}).Encode()
	if err != nil {
		panic(fmt.Sprintf("bench: dns query: %v", err))
	}
	send := func(w []byte) { probeSink += len(w) }
	return func() {
		if miss {
			b.DNS.BumpEpoch()
		}
		b.DNS.ServeWire(query, send)
	}
}
