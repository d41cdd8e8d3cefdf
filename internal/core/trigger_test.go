package core

import (
	"fmt"
	"testing"
	"time"

	"jitsu/internal/dns"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// transitionRecorder captures every Activation state transition.
type transitionRecorder struct {
	got []string
}

func (r *transitionRecorder) hook(svc *Service, from, to ServiceState) {
	r.got = append(r.got, fmt.Sprintf("%v->%v", from, to))
}

func (r *transitionRecorder) reset() { r.got = nil }

func (r *transitionRecorder) equal(want []string) bool {
	if len(r.got) != len(want) {
		return false
	}
	for i := range want {
		if r.got[i] != want[i] {
			return false
		}
	}
	return true
}

// fireFunc drives one frontend through its real signal path.
type fireFunc func(t *testing.T, b *Board, svc *Service)

// fireDNS sends one A query through the DNS server's one Intercept hook:
// in place, or — with a trailing byte the in-place parse refuses —
// through Decode, Answer and Encode.
func fireDNS(t *testing.T, b *Board, svc *Service, slow bool) {
	q := &dns.Message{ID: 7, Questions: []dns.Question{
		{Name: svc.Cfg.Name, Type: dns.TypeA, Class: dns.ClassIN}}}
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if slow {
		wire = append(wire, 0)
	}
	before := b.DNS.CacheMisses + b.DNS.CacheHits
	var rcode dns.RCode
	served := false
	b.DNS.ServeWire(wire, func(w []byte) { served, rcode = true, dns.RCode(w[3]&0xf) })
	if !served {
		t.Fatal("no answer")
	}
	// An answer the in-place path serves goes through its cache; a
	// SERVFAIL never does, on either path.
	if cached := b.DNS.CacheMisses+b.DNS.CacheHits != before; rcode == dns.RCodeNoError && cached == slow {
		t.Fatalf("slow=%v query took the other serve path", slow)
	}
}

func fireDNSSlow(t *testing.T, b *Board, svc *Service) { fireDNS(t, b, svc, true) }
func fireDNSFast(t *testing.T, b *Board, svc *Service) { fireDNS(t, b, svc, false) }

func fireSYN(t *testing.T, b *Board, svc *Service) {
	client := b.AddClient("syn-client", netstack.IPv4(10, 0, 0, 99))
	client.HTTPGet(svc.Cfg.IP, 80, "/", 5*time.Second,
		func(*netstack.HTTPResponse, sim.Duration, error) {})
}

func fireConduit(t *testing.T, b *Board, svc *Service) {
	ep, err := b.Registry.Connect(42, "jitsud")
	if err != nil {
		t.Fatal(err)
	}
	ep.Write([]byte("resolve " + svc.Cfg.Name + "\n"))
}

func fireDNSAsync(t *testing.T, b *Board, svc *Service) {
	q := &dns.Message{ID: 7, Questions: []dns.Question{
		{Name: svc.Cfg.Name, Type: dns.TypeA, Class: dns.ClassIN}}}
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b.DNS.ServeWire(wire, func([]byte) {})
}

// TestTriggerMatrix asserts that every frontend drives the shared
// Activation machine through identical state transitions for the cold,
// warm and out-of-memory cases: under memory pressure each is refused
// by admission without a launch. A raw SYN has no refusal channel, so
// its refusal leaves the connection parked with one refire booked.
func TestTriggerMatrix(t *testing.T) {
	coldTransitions := []string{"cold->launching", "launching->running"}

	frontends := []triggerMatrixRow{
		{name: "dns-slow", fire: fireDNSSlow, oomServFail: true, warmFires: true},
		{name: "dns-fast", fire: fireDNSFast, oomServFail: true, warmFires: true},
		{name: "syn", fire: fireSYN, oomParks: true, warmFires: false},
		{name: "conduit", fire: fireConduit, oomServFail: true, warmFires: true},
		{name: "dns-async", delayed: true, fire: fireDNSAsync, oomServFail: true, warmFires: true},
	}

	for _, fe := range frontends {
		fe := fe
		t.Run(fe.name+"/cold", func(t *testing.T) {
			b := New(WithDelayedDNS(fe.delayed))
			svc := b.Jitsu.Register(aliceService())
			rec := &transitionRecorder{}
			b.Jitsu.Activation().Subscribe(rec.hook)
			fe.fire(t, b, svc)
			b.Eng.Run()
			if !rec.equal(coldTransitions) {
				t.Fatalf("cold transitions = %v, want %v", rec.got, coldTransitions)
			}
			if svc.ColdStarts != 1 || svc.Launches != 1 {
				t.Fatalf("coldstarts=%d launches=%d, want 1/1", svc.ColdStarts, svc.Launches)
			}
		})
		t.Run(fe.name+"/warm", func(t *testing.T) {
			b := New(WithDelayedDNS(fe.delayed))
			svc := b.Jitsu.Register(aliceService())
			// Warm the service through the control plane (client-driven, so
			// it lands Running, not WarmMemory), then watch the frontend
			// firing leave the machine alone.
			if err := b.Jitsu.Activate(svc, true, nil); err != nil {
				t.Fatal(err)
			}
			b.Eng.Run()
			if svc.State != StateRunning {
				t.Fatalf("precondition: state = %v", svc.State)
			}
			rec := &transitionRecorder{}
			b.Jitsu.Activation().Subscribe(rec.hook)
			firedBefore := b.Jitsu.act.Fired[fe.viaName()]
			fe.fire(t, b, svc)
			b.Eng.Run()
			if !rec.equal(nil) {
				t.Fatalf("warm transitions = %v, want none", rec.got)
			}
			if svc.Launches != 1 {
				t.Fatalf("warm firing relaunched: %d", svc.Launches)
			}
			if fe.warmFires && b.Jitsu.act.Fired[fe.viaName()] == firedBefore {
				t.Fatalf("warm firing did not reach the machine via %q", fe.viaName())
			}
		})
		t.Run(fe.name+"/oom", func(t *testing.T) {
			b := New(WithDelayedDNS(fe.delayed), WithMemory(8))
			svc := b.Jitsu.Register(aliceService())
			rec := &transitionRecorder{}
			b.Jitsu.Activation().Subscribe(rec.hook)
			fe.fire(t, b, svc)
			b.Eng.RunFor(500 * time.Millisecond)
			booked := svc.refires == 1 && !svc.refire.Cancelled()
			if parked := len(svc.conns); fe.oomParks != (parked == 1 && booked) {
				t.Fatalf("parked = %d refires = %d, want parked %v with one refire booked", parked, svc.refires, fe.oomParks)
			}
			b.Eng.Run()
			if !rec.equal(nil) || svc.Launches != 0 {
				t.Fatalf("oom transitions = %v launches = %d, want none", rec.got, svc.Launches)
			}
			wantServFails := uint64(0)
			if fe.oomServFail {
				wantServFails = 1
			}
			if svc.ServFails != wantServFails {
				t.Fatalf("servfails = %d, want %d", svc.ServFails, wantServFails)
			}
			if svc.State != StateCold {
				t.Fatalf("state = %v, want cold", svc.State)
			}
		})
	}
}

// triggerMatrixRow is one frontend of the matrix.
type triggerMatrixRow struct {
	name    string
	delayed bool // board runs the delayed-DNS ablation frontend
	fire    fireFunc
	// oomParks: the OOM firing leaves a parked connection that waits on
	// a booked refire (a raw SYN, which has no refusal channel).
	oomParks bool
	// oomServFail: the refusal is surfaced (and counted) to a client.
	oomServFail bool
	// warmFires: a warm firing reaches the machine at all (a SYN to a
	// ready service goes straight to the unikernel instead).
	warmFires bool
}

// viaName maps the matrix row to the Summon.Via constant its frontend
// reports.
func (fe *triggerMatrixRow) viaName() string {
	switch fe.name {
	case "dns-slow", "dns-fast":
		return TriggerDNS
	case "dns-async":
		return TriggerDNSAsync
	case "syn":
		return TriggerSYN
	default:
		return TriggerConduit
	}
}

// TestServicesReadsTheDirectory: Services hands out the directory's own
// name-ordered slice of live entries, without copying it.
func TestServicesReadsTheDirectory(t *testing.T) {
	b := New()
	alice := b.Jitsu.Register(aliceService())
	if got := b.Jitsu.Services(); len(got) != 1 || got[0] != alice {
		t.Fatalf("directory = %v, want alice alone", got)
	}
	if n := testing.AllocsPerRun(10, func() { b.Jitsu.Services() }); n != 0 {
		t.Fatalf("Services allocated %.0f objects, want 0", n)
	}
}

// TestFastPathStaysAllocFreeWithTrigger guards the bench gate at the
// unit level: the DNS fast path through the dnsTrigger's Fire must not
// allocate once the answer cache is warm.
func TestFastPathStaysAllocFreeWithTrigger(t *testing.T) {
	b := New()
	svc := b.Jitsu.Register(aliceService())
	if err := b.Jitsu.Activate(svc, false, nil); err != nil {
		t.Fatal(err)
	}
	b.Eng.Run()
	q := &dns.Message{ID: 7, Questions: []dns.Question{
		{Name: svc.Cfg.Name, Type: dns.TypeA, Class: dns.ClassIN}}}
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sink := func([]byte) {}
	b.DNS.ServeWire(wire, sink) // prime the answer cache
	allocs := testing.AllocsPerRun(200, func() {
		b.DNS.ServeWire(wire, sink)
	})
	if allocs != 0 {
		t.Fatalf("fast path allocates %.1f per query through the trigger", allocs)
	}
}

// TestPrewarmTriggerLearnsRecurrence exercises the predictive frontend
// end to end on one board: periodic visits beyond the idle timeout go
// cold without it and warm with it.
func TestPrewarmTriggerLearnsRecurrence(t *testing.T) {
	run := func(withTrigger bool) (cold uint64, trig *PrewarmTrigger) {
		b := New()
		if withTrigger {
			trig = NewPrewarmTrigger(b)
		}
		sc := aliceService()
		sc.IdleTimeout = 6 * time.Second
		svc := b.Jitsu.Register(sc)
		client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))
		for i := 0; i < 8; i++ {
			at := sim.Duration(i) * 10 * time.Second
			b.Eng.At(at, func() {
				b.FetchViaDNS(client, svc.Cfg.Name, "/", 20*time.Second,
					func(_ *netstack.HTTPResponse, _ sim.Duration, err error) {
						if err != nil {
							t.Errorf("fetch: %v", err)
						}
					})
			})
		}
		b.Eng.Run()
		return svc.ColdStarts, trig
	}
	coldWithout, _ := run(false)
	coldWith, trig := run(true)
	if coldWithout != 8 {
		t.Fatalf("baseline cold starts = %d, want 8 (every visit)", coldWithout)
	}
	if coldWith > 3 {
		t.Fatalf("cold starts with trigger = %d, want ≤3 (learning visits only)", coldWith)
	}
	if trig.Predictions == 0 || trig.Hits == 0 {
		t.Fatalf("predictions=%d hits=%d, want >0", trig.Predictions, trig.Hits)
	}
	if trig.Misses != 0 {
		t.Fatalf("misses = %d on a clean periodic pattern", trig.Misses)
	}
}
