package experiments

import (
	"fmt"
	"time"

	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/metrics"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
	"jitsu/internal/xen"
	"jitsu/internal/xenstore"
)

// The ablations quantify the design choices DESIGN.md calls out. None
// map to a single paper figure; they fill the gaps the paper argues in
// prose.

// AblationSynjitsuMatrix runs the 2x2 of {synjitsu} x {toolstack}: the
// paper plots three of the four cells in Figure 9a; the fourth (no
// synjitsu + vanilla) completes the picture.
func AblationSynjitsuMatrix(trials int) *Result {
	r := newResult("Ablation: Synjitsu x Toolstack", "cold-start medians for the full 2x2")
	tab := metrics.NewTable("", "synjitsu", "toolstack", "p50 cold start")
	for _, syn := range []bool{false, true} {
		for _, opt := range []bool{false, true} {
			opts := xen.VanillaOpts()
			name := "vanilla"
			if opt {
				opts = xen.OptimisedOpts()
				name = "optimised"
			}
			s := &metrics.Series{Name: fmt.Sprintf("syn=%v/%s", syn, name)}
			for i := 0; i < trials; i++ {
				rt, err := fig9aTrial(fig9aConfig{synjitsu: syn, toolstack: opts}, int64(i))
				if err == nil {
					s.Add(rt)
				}
			}
			r.Series[s.Name] = s
			tab.AddRow(fmt.Sprint(syn), name, s.Percentile(0.5))
		}
	}
	r.Output = tab.String()
	r.addNote("expected: synjitsu dominates; the toolstack optimisation matters much more once synjitsu removes the 1s retransmission floor")
	return r
}

// AblationPrecreatedDomains quantifies the memory-vs-latency trade the
// paper declines (§3.1: "we prefer not to pay the cost of increased
// memory usage that would result from the pre-created domains").
func AblationPrecreatedDomains() *Result {
	r := newResult("Ablation: pre-created domains", "launch latency vs standing memory cost")
	tab := metrics.NewTable("", "pool size", "claim p50", "standing memory (MiB)")
	for _, pool := range []int{0, 1, 4, 8} {
		s := &metrics.Series{}
		var standing int
		for i := 0; i < 8; i++ {
			eng := sim.New(1200 + int64(i))
			store := xenstore.NewStore(xenstore.JitsuReconciler{})
			hyp := xen.NewHypervisor(eng, store, xen.CubieboardARM(), 1024)
			opts := xen.OptimisedOpts()
			opts.PrecreatePool = pool
			opts.PoolMemMiB = 16
			ts := xen.NewToolstack(hyp, opts)
			eng.Run() // drain pool refills
			start := eng.Now()
			ts.CreateDomain(xen.DomainConfig{Name: "svc", MemMiB: 16, ImageMiB: 1},
				func(d *xen.Domain, err error) {
					if err == nil {
						s.Add(eng.Now() - start)
					}
				})
			eng.Run()
			standing = pool * opts.PoolMemMiB // the memory the paper refuses to pin
		}
		r.Series[fmt.Sprintf("pool%d", pool)] = s
		tab.AddRow(pool, s.Percentile(0.5), standing)
	}
	r.Output = tab.String()
	r.addNote("pre-creation cuts launch to image-load time (~10ms) but pins 16MiB per pooled domain — on a 1GB board that is real capacity")
	return r
}

// AblationHotplug isolates the hotplug mechanism's contribution.
func AblationHotplug() *Result {
	r := newResult("Ablation: hotplug mechanism", "domain build time at 16MiB per mechanism")
	tab := metrics.NewTable("", "mechanism", "p50 build")
	for _, mech := range []xen.HotplugMechanism{xen.HotplugBash, xen.HotplugDash, xen.HotplugIoctl} {
		s := &metrics.Series{}
		for i := 0; i < 10; i++ {
			s.Add(fig4Build(fig4Variant{
				platform: xen.CubieboardARM,
				opts:     xen.ToolstackOpts{Hotplug: mech, Console: true},
			}, 16, int64(i)))
		}
		r.Series[mech.String()] = s
		tab.AddRow(mech.String(), s.Percentile(0.5))
	}
	r.Output = tab.String()
	return r
}

// AblationParallelAttach isolates the parallel vif attachment.
func AblationParallelAttach() *Result {
	r := newResult("Ablation: parallel device attach", "serial vs parallel vif chain")
	tab := metrics.NewTable("", "mode", "p50 build")
	for _, par := range []bool{false, true} {
		s := &metrics.Series{}
		for i := 0; i < 10; i++ {
			s.Add(fig4Build(fig4Variant{
				platform: xen.CubieboardARM,
				opts:     xen.ToolstackOpts{Hotplug: xen.HotplugIoctl, ParallelAttach: par, Console: true},
			}, 16, int64(i)))
		}
		name := "serial"
		if par {
			name = "parallel"
		}
		r.Series[name] = s
		tab.AddRow(name, s.Percentile(0.5))
	}
	r.Output = tab.String()
	return r
}

// AblationDelayedDNS compares Synjitsu against the rejected alternative
// of delaying the DNS response until the unikernel network is live
// (§3.3.1).
func AblationDelayedDNS(trials int) *Result {
	r := newResult("Ablation: delayed DNS vs Synjitsu", "the §3.3.1 design alternative")
	tab := metrics.NewTable("", "strategy", "DNS p50", "total p50")

	type strat struct {
		name    string
		syn     bool
		delayed bool
	}
	for _, st := range []strat{
		{"synjitsu proxying", true, false},
		{"delay DNS until ready", false, true},
	} {
		dnsS := &metrics.Series{}
		totS := &metrics.Series{}
		for i := 0; i < trials; i++ {
			b := core.New(core.WithSeed(1300+int64(i)),
				core.WithSynjitsu(st.syn), core.WithDelayedDNS(st.delayed))
			b.Jitsu.Register(core.ServiceConfig{
				Name: "alice.family.name", IP: netstack.IPv4(10, 0, 0, 20), Port: 80,
				Image: unikernel.UnikernelImage("alice", unikernel.NewStaticSiteApp("alice")),
			})
			client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))
			start := b.Eng.Now()
			dns.Fetcher{From: client, Server: core.NSAddr,
				Refused: func(rc dns.RCode) error { return fmt.Errorf("dns %v", rc) },
				// Route runs the moment the answer is in hand: the DNS leg.
				Route: func(netstack.IP) (*netstack.Host, int, int, error) {
					dnsS.Add(b.Eng.Now() - start)
					return client, -1, -1, nil
				},
			}.Fetch("alice.family.name", "/", 30*time.Second,
				func(_, _ int, _ *netstack.HTTPResponse, total sim.Duration, err error) {
					if err == nil {
						totS.Add(total)
					}
				})
			b.Eng.Run()
		}
		r.Series[st.name+"/dns"] = dnsS
		r.Series[st.name+"/total"] = totS
		tab.AddRow(st.name, dnsS.Percentile(0.5), totS.Percentile(0.5))
	}
	r.Output = tab.String()
	r.addNote("both avoid the 1s SYN floor; synjitsu keeps DNS sub-millisecond and overlaps the handshake with the boot, which is why the paper prefers it")
	return r
}

// AblationMergeStrategies is Figure 3 at one contention point,
// comparing conflict counts directly.
func AblationMergeStrategies(n int) *Result {
	r := newResult("Ablation: XenStore merge strategies", fmt.Sprintf("conflicts at %d parallel builds", n))
	tab := metrics.NewTable("", "reconciler", "wall time", "tx retries")
	for _, rec := range []xenstore.Reconciler{
		xenstore.CReconciler{}, xenstore.OCamlReconciler{}, xenstore.JitsuReconciler{},
	} {
		elapsed, retries := runFig3Cell(rec, n)
		tab.AddRow(rec.Name(), elapsed, fmt.Sprint(retries))
		s := &metrics.Series{Name: rec.Name()}
		s.Add(elapsed)
		r.Series[rec.Name()] = s
	}
	r.Output = tab.String()
	return r
}
