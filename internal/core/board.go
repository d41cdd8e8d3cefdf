// Package core is the paper's contribution: the Jitsu directory service
// (§3.3) that launches unikernels just-in-time in response to DNS
// requests, and the Synjitsu proxy (§3.3.1) that masks boot latency by
// completing TCP handshakes on behalf of still-booting unikernels and
// handing the connection state over through XenStore.
package core

import (
	"fmt"
	"time"

	"jitsu/internal/blockdev"
	"jitsu/internal/conduit"
	"jitsu/internal/dns"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
	"jitsu/internal/xen"
	"jitsu/internal/xenstore"
)

// The external link (client <-> board): a Cubieboard2's 100 Mb
// Ethernet.
const (
	ExtLatency    = 150 * time.Microsecond
	ExtBitsPerSec = 100e6
)

// BoardConfig assembles one embedded Jitsu host (a Cubieboard in the
// paper's evaluation) plus its edge network; options are its only
// writers.
type BoardConfig struct {
	Seed      int64
	platform  *xen.Platform
	toolstack xen.ToolstackOpts
	// TotalMemMiB is guest-available RAM (Cubieboard2: 1GB minus dom0).
	TotalMemMiB int
	// Zone is the DNS apex this board is authoritative for.
	Zone string
	// synjitsu enables the connection proxy.
	synjitsu bool
	// delayDNSUntilReady is the §3.3.1 alternative the paper rejects:
	// hold the DNS answer until the unikernel network is live.
	delayDNSUntilReady bool
	// synLaunchRate rate-limits SYN-triggered launches per service
	// (token bucket, launches/second), so a SYN flood cannot reboot a
	// reaped service at every reap. 0 (the default) disables the
	// limiter. Warm traffic is never throttled.
	synLaunchRate float64
	// synLaunchBurst is the token bucket's depth (minimum 1).
	synLaunchBurst int
	// disk sizes the board's checkpoint store — the cold-on-disk tier.
	// The zero value builds no device (DefaultConfig: a diskless board
	// keeps the two-tier admission behaviour); WithDisk opts in.
	disk blockdev.Config
	// tracer, when set, is the flight recorder every subsystem on the
	// board emits spans into; its timestamps come from the board's
	// engine, so a seeded run exports bit-identically. Nil (the
	// default) disables tracing and keeps every hot path alloc-free.
	tracer *obs.Tracer
	// traceTID is the tracer lane this board's events render on —
	// cluster builders assign one lane per board.
	traceTID int
}

// DefaultConfig is a Cubieboard2 running the fully optimised stack with
// Synjitsu on — the headline configuration.
func DefaultConfig() BoardConfig {
	return BoardConfig{
		Seed:        1,
		platform:    xen.CubieboardARM(),
		toolstack:   xen.OptimisedOpts(),
		TotalMemMiB: 768,
		Zone:        "family.name",
		synjitsu:    true,
	}
}

// Board is a fully wired Jitsu host: hypervisor, store, toolstack,
// bridge, launcher, directory service, and (optionally) Synjitsu.
type Board struct {
	Cfg      BoardConfig
	Eng      *sim.Engine
	Store    *xenstore.Store
	Hyp      *xen.Hypervisor
	TS       *xen.Toolstack
	Bridge   *netsim.Bridge
	Launcher *unikernel.Launcher
	Registry *conduit.Registry
	// NS is the directory service's network endpoint (dom0-resident).
	NS  *netstack.Host
	DNS *dns.Server
	// Jitsu is the directory service.
	Jitsu *Jitsu
	// Syn is the proxy; nil when disabled.
	Syn *Synjitsu
	// Disk is the board's checkpoint store; nil on a diskless board (no
	// cold-on-disk tier, demotion returns ErrNoDisk).
	Disk *blockdev.Device
	// Tracer is the board's flight recorder (nil when tracing is off).
	Tracer *obs.Tracer
	// Reg is the board's metric registry: snapshot-time mirrors of the
	// DNS, engine, activation, memory, tier and disk state. Always
	// present; mirrors cost nothing until Snapshot. Launch and demote
	// latencies are spans on Tracer.
	Reg *obs.Registry

	nextClient int
}

// Well-known board addresses.
var (
	// NSAddr is the directory service (ns.<zone>).
	NSAddr = netstack.IPv4(10, 0, 0, 1)
	// SynAddr is the Synjitsu proxy's own address.
	SynAddr = netstack.IPv4(10, 0, 0, 2)
)

// buildBoard wires a board from a resolved config: hypervisor, store,
// toolstack, bridge, launcher, DNS, directory, proxy and the built-in
// trigger frontends, all on the given engine.
func buildBoard(eng *sim.Engine, cfg BoardConfig) *Board {
	store := xenstore.NewStore(xenstore.JitsuReconciler{})
	hyp := xen.NewHypervisor(eng, store, cfg.platform, cfg.TotalMemMiB)
	ts := xen.NewToolstack(hyp, cfg.toolstack)
	bridge := netsim.NewBridge(eng, "xenbr0", 10*time.Microsecond)
	b := &Board{
		Cfg: cfg, Eng: eng, Store: store, Hyp: hyp, TS: ts,
		Bridge:   bridge,
		Launcher: unikernel.NewLauncher(ts, bridge),
		Registry: conduit.NewRegistry(hyp),
	}

	// The directory service runs in dom0 (in the paper it is itself a
	// unikernel launched at boot; the distinction does not affect any
	// measured quantity, and dom0 keeps the wiring readable).
	nsNIC := netsim.NewNIC(eng, "jitsu-ns", netsim.MACFor(0xFF0001))
	bridge.ConnectNIC(nsNIC, 20*time.Microsecond, 0)
	b.NS = netstack.NewHost(eng, "jitsu-ns", nsNIC, NSAddr, netstack.Dom0Profile())

	zone := dns.NewZone(cfg.Zone)
	zone.Add(dns.RR{Name: "ns." + cfg.Zone, Type: dns.TypeA, TTL: 300, A: NSAddr})
	srv, err := dns.Serve(b.NS, zone)
	if err != nil {
		panic(fmt.Sprintf("core: dns serve: %v", err))
	}
	b.DNS = srv

	if cfg.synjitsu {
		b.Syn = newSynjitsu(b, SynAddr)
	}
	b.Disk = blockdev.New(eng, cfg.disk)
	b.Jitsu = newJitsu(b)

	b.Tracer = cfg.tracer
	b.Tracer.BindClock(eng.Now)
	srv.Tracer = cfg.tracer
	srv.TraceTID = cfg.traceTID
	b.Reg = obs.NewRegistry(fmt.Sprintf("board%d", cfg.traceTID))
	b.Reg.CounterFunc("dns.queries", func() uint64 { return srv.Queries })
	b.Reg.CounterFunc("dns.cache_hits", func() uint64 { return srv.CacheHits })
	b.Reg.CounterFunc("dns.cache_misses", func() uint64 { return srv.CacheMisses })
	b.Reg.GaugeFunc("dns.epoch", func() int64 { return int64(srv.Epoch) })
	b.Reg.CounterFunc("sim.fired", eng.Fired)
	b.Reg.GaugeFunc("sim.pending", func() int64 { return int64(eng.Pending()) })
	b.Reg.GaugeFunc("sim.max_pending", func() int64 { return int64(eng.MaxPending()) })
	b.Reg.CounterFunc("activation.cold_starts", func() uint64 { return b.Jitsu.sumCounters(func(s *Service) uint64 { return s.ColdStarts }) })
	b.Reg.CounterFunc("activation.launches", func() uint64 { return b.Jitsu.sumCounters(func(s *Service) uint64 { return s.Launches }) })
	b.Reg.CounterFunc("activation.restores", func() uint64 { return b.Jitsu.sumCounters(func(s *Service) uint64 { return s.Restores }) })
	b.Reg.CounterFunc("activation.servfails", func() uint64 { return b.Jitsu.sumCounters(func(s *Service) uint64 { return s.ServFails }) })
	b.Reg.CounterFunc("activation.reaps", func() uint64 { return b.Jitsu.sumCounters(func(s *Service) uint64 { return s.Reaps }) })
	b.Reg.GaugeFunc("xen.free_mem_mib", func() int64 { return int64(hyp.FreeMemMiB()) })
	countTier := func(st ServiceState) int64 {
		var n int64
		for _, svc := range b.Jitsu.ordered {
			if svc.State == st {
				n++
			}
		}
		return n
	}
	b.Reg.GaugeFunc("tier.running", func() int64 { return countTier(StateRunning) })
	b.Reg.GaugeFunc("tier.warm_memory", func() int64 { return countTier(StateWarmMemory) })
	b.Reg.GaugeFunc("tier.cold_disk", func() int64 { return countTier(StateColdDisk) })
	if b.Disk != nil {
		b.Reg.CounterFunc("activation.disk_restores", func() uint64 { return b.Jitsu.sumCounters(func(s *Service) uint64 { return s.DiskRestores }) })
		b.Reg.CounterFunc("activation.demotions", func() uint64 { return b.Jitsu.sumCounters(func(s *Service) uint64 { return s.Demotions }) })
		b.Reg.GaugeFunc("disk.slots_used", func() int64 { return int64(b.Disk.SlotsUsed()) })
		b.Reg.GaugeFunc("disk.slots_total", func() int64 { return int64(b.Disk.SlotsTotal()) })
		b.Reg.CounterFunc("disk.reads", func() uint64 { return b.Disk.Reads })
		b.Reg.CounterFunc("disk.writes", func() uint64 { return b.Disk.Writes })
	}
	return b
}

// AddClient attaches an external client host to the board's network.
func (b *Board) AddClient(name string, ip netstack.IP) *netstack.Host {
	b.nextClient++
	nic := netsim.NewNIC(b.Eng, name, netsim.MACFor(0x9000+b.nextClient))
	b.Bridge.ConnectNIC(nic, ExtLatency, ExtBitsPerSec)
	return netstack.NewHost(b.Eng, name, nic, ip, netstack.LinuxNativeProfile())
}

// FetchViaDNS performs the full Figure 9a client transaction: resolve
// name at the board's nameserver, then GET path from the answered
// address. done receives the total elapsed time from query to complete
// HTTP response.
func (b *Board) FetchViaDNS(client *netstack.Host, name, path string, timeout sim.Duration, done func(*netstack.HTTPResponse, sim.Duration, error)) {
	dns.Fetcher{From: client, Server: NSAddr, Refused: dnsRefused}.Fetch(name, path, timeout,
		func(_, _ int, resp *netstack.HTTPResponse, elapsed sim.Duration, err error) { done(resp, elapsed, err) })
}

// dnsRefused is a single board's reading of a response without an
// answer: there is nowhere else to go, so every rcode is just an error.
func dnsRefused(rc dns.RCode) error { return fmt.Errorf("core: dns %v", rc) }
