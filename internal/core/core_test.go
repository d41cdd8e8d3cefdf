package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"jitsu/internal/dns"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
	"jitsu/internal/xen"
	"jitsu/internal/xenstore"
)

func aliceService() ServiceConfig {
	return ServiceConfig{
		Name:  "alice.family.name",
		IP:    netstack.IPv4(10, 0, 0, 20),
		Port:  80,
		Image: unikernel.UnikernelImage("alice", unikernel.NewStaticSiteApp("alice")),
	}
}

func TestColdStartWithSynjitsu(t *testing.T) {
	// The headline number: DNS query → launch → Synjitsu handshake →
	// handoff → HTTP response, all within ~300–500ms on ARM.
	b := New()
	svc := b.Jitsu.Register(aliceService())
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))

	var rt sim.Duration
	var resp *netstack.HTTPResponse
	var gotErr error
	b.FetchViaDNS(client, "alice.family.name", "/", 10*time.Second,
		func(r *netstack.HTTPResponse, d sim.Duration, err error) {
			resp, rt, gotErr = r, d, err
		})
	b.Eng.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "alice") {
		t.Fatalf("resp = %+v", resp)
	}
	if rt < 250*time.Millisecond || rt > 550*time.Millisecond {
		t.Errorf("cold start with synjitsu = %v, want ≈300–500ms", rt)
	}
	if svc.State != StateRunning || svc.Launches != 1 {
		t.Fatalf("service state %v launches %d", svc.State, svc.Launches)
	}
	if b.Syn.Proxied == 0 || b.Syn.HandedOff == 0 {
		t.Fatalf("synjitsu did not proxy/handoff: proxied=%d handed=%d",
			b.Syn.Proxied, b.Syn.HandedOff)
	}
}

func TestColdStartWithoutSynjitsuExceedsOneSecond(t *testing.T) {
	b := New(WithSynjitsu(false))
	b.Jitsu.Register(aliceService())
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))

	var rt sim.Duration
	b.FetchViaDNS(client, "alice.family.name", "/", 10*time.Second,
		func(r *netstack.HTTPResponse, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			rt = d
		})
	b.Eng.Run()
	// "Early SYN packets are lost and the client retransmits them,
	// leading to response times of over a second."
	if rt < time.Second {
		t.Errorf("cold start without synjitsu = %v, want > 1s", rt)
	}
}

func TestWarmRequestIsMilliseconds(t *testing.T) {
	b := New()
	b.Jitsu.Register(aliceService())
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))
	// First request boots the unikernel.
	b.FetchViaDNS(client, "alice.family.name", "/", 10*time.Second,
		func(*netstack.HTTPResponse, sim.Duration, error) {})
	b.Eng.Run()
	// Second request is warm: "an already-booted service can respond to
	// local traffic in around 5ms".
	var rt sim.Duration
	b.FetchViaDNS(client, "alice.family.name", "/", 10*time.Second,
		func(r *netstack.HTTPResponse, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			rt = d
		})
	b.Eng.Run()
	if rt > 10*time.Millisecond {
		t.Errorf("warm request = %v, want ≈5ms", rt)
	}
}

func TestSynjitsuBuffersMidBootData(t *testing.T) {
	// A client that connects and sends its request while the unikernel
	// is still booting: the payload must survive the handoff byte-exact.
	b := New()
	svc := b.Jitsu.Register(aliceService())
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))

	// Trigger launch via DNS but issue HTTP immediately (mid-boot).
	resolver := &dns.Client{Host: client}
	var rt sim.Duration
	var status int
	resolver.Query(NSAddr, "alice.family.name", dns.TypeA, 5*time.Second,
		func(m *dns.Message, _ sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			start := b.Eng.Now()
			client.HTTPGet(m.Answers[0].A, 80, "/", 10*time.Second,
				func(r *netstack.HTTPResponse, _ sim.Duration, err error) {
					if err != nil {
						t.Fatal(err)
					}
					status, rt = r.Status, b.Eng.Now()-start
				})
		})
	b.Eng.Run()
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	if svc.Handoffs == 0 {
		t.Fatal("no handoff happened; the request should have been proxied")
	}
	// No SYN retransmission: well under a second.
	if rt > 600*time.Millisecond {
		t.Errorf("mid-boot request = %v (SYN was retransmitted?)", rt)
	}
}

func TestSYNWithoutDNSTriggersLaunch(t *testing.T) {
	// §3.3: Synjitsu makes Jitsu "more robust in the face of TCP
	// connections arriving unexpectedly outside of DNS resolution".
	b := New()
	svc := b.Jitsu.Register(aliceService())
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))
	var status int
	client.HTTPGet(svc.Cfg.IP, 80, "/", 10*time.Second,
		func(r *netstack.HTTPResponse, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			status = r.Status
		})
	b.Eng.Run()
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	if b.Syn.SYNTriggeredLaunches != 1 {
		t.Fatalf("SYN-triggered launches = %d", b.Syn.SYNTriggeredLaunches)
	}
	if svc.Launches != 1 {
		t.Fatalf("launches = %d", svc.Launches)
	}
}

func TestServFailWhenOutOfMemory(t *testing.T) {
	b := New(WithMemory(8)) // not enough for any unikernel
	svc := b.Jitsu.Register(aliceService())
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))
	resolver := &dns.Client{Host: client}
	var rcode dns.RCode
	resolver.Query(NSAddr, "alice.family.name", dns.TypeA, 5*time.Second,
		func(m *dns.Message, _ sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			rcode = m.RCode
		})
	b.Eng.Run()
	if rcode != dns.RCodeServFail {
		t.Fatalf("rcode = %v, want SERVFAIL", rcode)
	}
	if svc.ServFails != 1 || svc.Launches != 0 {
		t.Fatalf("servfails=%d launches=%d", svc.ServFails, svc.Launches)
	}
}

func TestUnknownNameFallsThroughToZone(t *testing.T) {
	b := New()
	b.Jitsu.Register(aliceService())
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))
	resolver := &dns.Client{Host: client}
	// ns.family.name is a plain zone record, not a service.
	var a netstack.IP
	resolver.Query(NSAddr, "ns.family.name", dns.TypeA, 5*time.Second,
		func(m *dns.Message, _ sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			a = m.Answers[0].A
		})
	b.Eng.Run()
	if a != NSAddr {
		t.Fatalf("ns A = %v", a)
	}
	// And an unknown name is NXDOMAIN.
	var rcode dns.RCode
	resolver.Query(NSAddr, "nobody.family.name", dns.TypeA, 5*time.Second,
		func(m *dns.Message, _ sim.Duration, err error) { rcode = m.RCode })
	b.Eng.Run()
	if rcode != dns.RCodeNXDomain {
		t.Fatalf("rcode = %v", rcode)
	}
}

func TestIdleReaperStopsAndRestarts(t *testing.T) {
	b := New()
	sc := aliceService()
	sc.IdleTimeout = 2 * time.Second
	svc := b.Jitsu.Register(sc)
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))

	b.FetchViaDNS(client, "alice.family.name", "/", 10*time.Second,
		func(*netstack.HTTPResponse, sim.Duration, error) {})
	// Bounded run: Eng.Run() would drain past the idle deadline.
	b.Eng.RunFor(time.Second)
	if svc.State != StateRunning {
		t.Fatal("service should be ready")
	}
	// Let it idle out.
	b.Eng.RunFor(5 * time.Second)
	if svc.State != StateCold || svc.Reaps != 1 {
		t.Fatalf("state=%v reaps=%d, want stopped/1", svc.State, svc.Reaps)
	}
	memAfterReap := b.Hyp.FreeMemMiB()
	if memAfterReap < b.Cfg.TotalMemMiB-1 {
		t.Fatalf("memory not reclaimed: %d", memAfterReap)
	}
	// A new request summons it again — and Synjitsu must proxy it even
	// though clients' ARP caches still hold the dead guest's MAC
	// (regression: the proxy re-announces the IP when re-claiming it).
	var status int
	var rt sim.Duration
	b.FetchViaDNS(client, "alice.family.name", "/", 10*time.Second,
		func(r *netstack.HTTPResponse, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			status, rt = r.Status, d
		})
	b.Eng.Run()
	if status != 200 || svc.Launches != 2 {
		t.Fatalf("status=%d launches=%d", status, svc.Launches)
	}
	if rt >= time.Second {
		t.Fatalf("re-summon after reap took %v: SYN was lost, proxy did not re-claim the IP", rt)
	}
}

func TestActivityDefersReaper(t *testing.T) {
	b := New()
	sc := aliceService()
	sc.IdleTimeout = 2 * time.Second
	svc := b.Jitsu.Register(sc)
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))
	b.FetchViaDNS(client, "alice.family.name", "/", 10*time.Second,
		func(*netstack.HTTPResponse, sim.Duration, error) {})
	b.Eng.RunFor(time.Second)
	// Keep querying every second: the service must stay up.
	for i := 0; i < 4; i++ {
		b.Eng.RunFor(time.Second)
		resolver := &dns.Client{Host: client}
		resolver.Query(NSAddr, "alice.family.name", dns.TypeA, time.Second,
			func(*dns.Message, sim.Duration, error) {})
		b.Eng.RunFor(100 * time.Millisecond)
		if svc.State != StateRunning {
			t.Fatalf("iteration %d: service reaped despite activity", i)
		}
	}
}

func TestMultipleServicesIndependent(t *testing.T) {
	b := New()
	names := []string{"alice", "bob", "carol"}
	for i, n := range names {
		b.Jitsu.Register(ServiceConfig{
			Name:  n + ".family.name",
			IP:    netstack.IPv4(10, 0, 0, byte(20+i)),
			Port:  80,
			Image: unikernel.UnikernelImage(n, unikernel.NewStaticSiteApp(n)),
		})
	}
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))
	got := map[string]string{}
	for _, n := range names {
		n := n
		b.FetchViaDNS(client, n+".family.name", "/", 10*time.Second,
			func(r *netstack.HTTPResponse, d sim.Duration, err error) {
				if err != nil {
					t.Errorf("%s: %v", n, err)
					return
				}
				got[n] = string(r.Body)
			})
	}
	b.Eng.Run()
	for _, n := range names {
		if !strings.Contains(got[n], n) {
			t.Errorf("%s got wrong body %q", n, got[n])
		}
	}
	if b.Hyp.Domains() != 4 { // dom0 + three unikernels
		t.Errorf("domains = %d", b.Hyp.Domains())
	}
}

func TestDelayedDNSAblation(t *testing.T) {
	// The rejected §3.3.1 alternative: correct but slower resolution,
	// and no SYN race because the client only learns the IP when the
	// unikernel is live.
	b := New(WithSynjitsu(false), WithDelayedDNS(true))
	b.Jitsu.Register(aliceService())
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))

	var dnsRT, totalRT sim.Duration
	resolver := &dns.Client{Host: client}
	start := b.Eng.Now()
	resolver.Query(NSAddr, "alice.family.name", dns.TypeA, 10*time.Second,
		func(m *dns.Message, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			dnsRT = d
			client.HTTPGet(m.Answers[0].A, 80, "/", 10*time.Second,
				func(r *netstack.HTTPResponse, _ sim.Duration, err error) {
					if err != nil {
						t.Fatal(err)
					}
					totalRT = b.Eng.Now() - start
				})
		})
	b.Eng.Run()
	// The DNS answer itself absorbed the whole boot.
	if dnsRT < 250*time.Millisecond {
		t.Errorf("delayed DNS answered in %v, should include boot", dnsRT)
	}
	// But no SYN retransmission: total stays under a second.
	if totalRT > time.Second {
		t.Errorf("total = %v; delayed DNS should avoid the SYN race", totalRT)
	}
}

func TestJitsudConduitResolution(t *testing.T) {
	// A local unikernel resolves (and summons) a peer via the conduit
	// instead of DNS.
	b := New()
	svc := b.Jitsu.Register(aliceService())
	ep, err := b.Registry.Connect(42, "jitsud")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	ep.OnData(func(data []byte) { reply += string(data) })
	ep.Write([]byte("resolve alice.family.name\n"))
	b.Eng.Run()
	if reply != "ok 10.0.0.20\n" {
		t.Fatalf("reply = %q", reply)
	}
	if svc.Launches != 1 {
		t.Fatalf("conduit resolve did not launch: %d", svc.Launches)
	}
	// Unknown name.
	reply = ""
	ep.Write([]byte("resolve ghost.family.name\n"))
	b.Eng.Run()
	if reply != "nxdomain\n" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestHandoffStateVisibleInXenStore(t *testing.T) {
	// Figure 7: embryonic connections appear under /conduit/<svc>/tcpv4
	// while the unikernel boots.
	b := New()
	svc := b.Jitsu.Register(aliceService())
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))

	client.HTTPGet(svc.Cfg.IP, 80, "/", 10*time.Second,
		func(*netstack.HTTPResponse, sim.Duration, error) {})
	// Run until the proxy has accepted but the guest hasn't booted.
	seen := false
	for i := 0; i < 4000 && !seen; i++ {
		if !b.Eng.Step() {
			break
		}
		if names, err := b.Store.List(xenstore.Dom0, nil, "/conduit/alice.family.name/tcpv4"); err == nil && len(names) > 0 {
			raw, _ := b.Store.Read(xenstore.Dom0, nil, "/conduit/alice.family.name/tcpv4/"+names[0])
			if _, err := netstack.ParseTCB(raw); err != nil {
				t.Fatalf("unparseable TCB in store: %q", raw)
			}
			seen = true
		}
	}
	if !seen {
		t.Fatal("no embryonic connection recorded in XenStore")
	}
	b.Eng.Run()
	// After handoff the records are cleaned and the commit flag is set.
	if names, _ := b.Store.List(xenstore.Dom0, nil, "/conduit/alice.family.name/tcpv4"); len(names) != 0 {
		t.Fatalf("tcpv4 records remain after handoff: %v", names)
	}
	if v, _ := b.Store.Read(xenstore.Dom0, nil, "/conduit/alice.family.name/handoff"); v != "committed" {
		t.Fatalf("handoff flag = %q", v)
	}
}

func TestVanillaToolstackSlowerColdStart(t *testing.T) {
	run := func(opts xen.ToolstackOpts) sim.Duration {
		b := New(WithToolstack(opts))
		b.Jitsu.Register(aliceService())
		client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))
		var rt sim.Duration
		b.FetchViaDNS(client, "alice.family.name", "/", 10*time.Second,
			func(r *netstack.HTTPResponse, d sim.Duration, err error) {
				if err != nil {
					t.Fatal(err)
				}
				rt = d
			})
		b.Eng.Run()
		return rt
	}
	vanilla := run(xen.VanillaOpts())
	optimised := run(xen.OptimisedOpts())
	if optimised >= vanilla {
		t.Errorf("optimised (%v) not faster than vanilla (%v)", optimised, vanilla)
	}
	if vanilla-optimised < 300*time.Millisecond {
		t.Errorf("toolstack optimisation saved only %v", vanilla-optimised)
	}
}

func TestServiceLookupErrors(t *testing.T) {
	b := New()
	if _, err := b.Jitsu.Service("ghost.family.name"); !errors.Is(err, ErrNoSuchService) {
		t.Fatalf("err = %v", err)
	}
}

// TestCountersAddMatchesFieldByField holds Counters.Add, Values and
// CounterNames to a reference that names every field — the list the
// cluster's totals, the counter table and the stats row no longer carry.
func TestCountersAddMatchesFieldByField(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func() Counters {
		return Counters{Launches: rng.Uint64() >> 8, ColdStarts: rng.Uint64() >> 8, Handoffs: rng.Uint64() >> 8,
			ServFails: rng.Uint64() >> 8, Reaps: rng.Uint64() >> 8, Restores: rng.Uint64() >> 8,
			DiskRestores: rng.Uint64() >> 8, Demotions: rng.Uint64() >> 8}
	}
	var sum, ref Counters
	for i := 0; i < 50; i++ {
		c := draw()
		sum.Add(c)
		ref.Launches += c.Launches
		ref.ColdStarts += c.ColdStarts
		ref.Handoffs += c.Handoffs
		ref.ServFails += c.ServFails
		ref.Reaps += c.Reaps
		ref.Restores += c.Restores
		ref.DiskRestores += c.DiskRestores
		ref.Demotions += c.Demotions
		if sum != ref {
			t.Fatalf("after %d adds: got %+v, want %+v", i+1, sum, ref)
		}
	}
	want := [...]uint64{ref.Launches, ref.ColdStarts, ref.Handoffs, ref.ServFails, ref.Reaps, ref.Restores, ref.DiskRestores, ref.Demotions}
	if got := sum.Values(); got != want {
		t.Fatalf("Values() = %v, want %v", got, want)
	}
	if n := reflect.TypeOf(Counters{}).NumField(); n != len(CounterNames) || n != len(want) {
		t.Fatalf("Counters has %d fields, CounterNames %d, this test %d", n, len(CounterNames), len(want))
	}
}
