package core

import (
	"errors"
	"testing"
	"time"

	"jitsu/internal/blockdev"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
)

// siteService is a static-site service name.family.name at 10.0.0.octet.
func siteService(name string, octet byte) ServiceConfig {
	return ServiceConfig{
		Name:  name + ".family.name",
		IP:    netstack.IPv4(10, 0, 0, octet),
		Port:  80,
		Image: unikernel.UnikernelImage(name, unikernel.NewStaticSiteApp(name)),
	}
}

// rawGet fetches / from svc's address with no DNS query first (a raw
// SYN) and reports when the fetch ended and how.
type rawGet struct {
	done   bool
	at     sim.Duration
	status int
	err    error
}

func startRawGet(b *Board, client *netstack.Host, svc *Service, timeout sim.Duration) *rawGet {
	g := &rawGet{}
	client.HTTPGet(svc.Cfg.IP, 80, "/", timeout, func(r *netstack.HTTPResponse, _ sim.Duration, err error) {
		g.done, g.at, g.err = true, b.Eng.Now(), err
		if r != nil {
			g.status = r.Status
		}
	})
	return g
}

func rawClient(b *Board) *netstack.Host { return b.AddClient("raw-client", netstack.IPv4(10, 0, 0, 9)) }

// TestRelaunchJoinsItsOwnDestroy: an Activate 1 virtual ms after an
// Evict finds the service's previous VM still being destroyed. The
// relaunch waits for that destroy instead of racing it: on a roomy
// board the domain name is still taken until then, and on a board that
// fits exactly one instance so is the memory.
func TestRelaunchJoinsItsOwnDestroy(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"exact-fit", []Option{WithMemory(aliceService().Image.MemMiB)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := New(c.opts...)
			svc := b.Jitsu.Register(aliceService())
			bringTo(t, b, svc, StateRunning)
			if !b.Jitsu.Evict(svc) {
				t.Fatal("Evict refused a running service")
			}
			b.Eng.RunFor(time.Millisecond)
			called := 0
			var ready error
			if err := b.Jitsu.Activate(svc, true, func(err error) { called, ready = called+1, err }); err != nil {
				t.Fatalf("Activate 1 ms after Evict = %v", err)
			}
			b.Eng.Run()
			if called != 1 || ready != nil {
				t.Fatalf("OnReady called %d times, last with %v; want once with nil", called, ready)
			}
			if svc.State != StateRunning || svc.Launches != 2 {
				t.Fatalf("state = %v launches = %d, want running after 2", svc.State, svc.Launches)
			}
		})
	}
}

// TestParkedClientServedWhenMemoryFrees is the board-sized shape of
// the federation's seed-11 loss: a raw SYN to bob on a board whose only
// slot alice holds is refused by admission, so Synjitsu keeps the
// client's connection parked. When alice goes, the parked
// connection must bring bob up and be served, not sit out its 30 s
// timeout — also when a speculative firing for carol comes for the
// freed memory before bob's next scheduled firing would.
func TestParkedClientServedWhenMemoryFrees(t *testing.T) {
	for _, c := range []struct {
		name         string
		evict, carol sim.Duration // carol: 0 = never fired
	}{
		{"evict at +1s", time.Second, 0},
		{"prewarm races the freed memory", 500 * time.Millisecond, 600 * time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := New(WithMemory(aliceService().Image.MemMiB))
			alice := b.Jitsu.Register(aliceService())
			bob := b.Jitsu.Register(siteService("bob", 21))
			carol := b.Jitsu.Register(siteService("carol", 22))
			bringTo(t, b, alice, StateRunning)
			start := b.Eng.Now()
			g := startRawGet(b, rawClient(b), bob, 30*time.Second)
			b.Eng.At(start+c.evict, func() { b.Jitsu.Evict(alice) })
			if c.carol > 0 {
				b.Eng.At(start+c.carol, func() { _ = b.Jitsu.Activate(carol, false, nil) })
			}
			b.Eng.Run()
			if !g.done || g.err != nil || g.status != 200 {
				t.Fatalf("client: done=%v status=%d err=%v after %v (bob launches %d, state %v, %d parked)",
					g.done, g.status, g.err, g.at-start, bob.Launches, bob.State, len(bob.conns))
			}
			if took := g.at - start; took > 5*time.Second {
				t.Fatalf("served after %v, want well inside the 30 s timeout", took)
			}
			if bob.State != StateRunning || bob.Handoffs != 1 || carol.Launches != 0 {
				t.Fatalf("bob: state = %v handoffs = %d; carol launches = %d, want running, 1, 0",
					bob.State, bob.Handoffs, carol.Launches)
			}
		})
	}
}

// TestDeregisterResetsParkedClients: a raw GET on a board too small for
// any image leaves its connection parked behind a failed launch;
// deregistering the service must reset that client at once rather
// than leave it to time out.
func TestDeregisterResetsParkedClients(t *testing.T) {
	b := New(WithMemory(8))
	svc := b.Jitsu.Register(aliceService())
	start := b.Eng.Now()
	g := startRawGet(b, rawClient(b), svc, 30*time.Second)
	b.Eng.At(start+time.Second, func() { b.Jitsu.Deregister(svc) })
	b.Eng.Run()
	if !g.done || !errors.Is(g.err, netstack.ErrConnReset) {
		t.Fatalf("client: done=%v err=%v after %v, want %v", g.done, g.err, g.at-start, netstack.ErrConnReset)
	}
	if took := g.at - start; took > 2*time.Second {
		t.Fatalf("reset after %v, want within 1 s of the Deregister", took)
	}
}

// TestJoinerHearsLaunchCause: an Activate that joins an in-flight
// launch hears why it failed. Bob's checkpoint sits on disk; his
// Promote is admitted, the Activate joins it while the checkpoint is
// read, and bob is deregistered before the read completes.
func TestJoinerHearsLaunchCause(t *testing.T) {
	b := New(WithMemory(aliceService().Image.MemMiB), WithDisk(blockdev.DefaultConfig()))
	bob := b.Jitsu.Register(siteService("bob", 21))
	bringTo(t, b, bob, StateColdDisk)
	var promoted error
	if err := b.Jitsu.Promote(bob, func(err error) { promoted = err }); err != nil {
		t.Fatalf("Promote bob = %v", err)
	}
	var got error
	called := 0
	if err := b.Jitsu.Activate(bob, true, func(err error) { called, got = called+1, err }); err != nil {
		t.Fatalf("Activate joining bob's restore = %v", err)
	}
	b.Eng.RunFor(time.Millisecond)
	if b.Jitsu.act.reading == 0 {
		t.Fatal("bob's checkpoint read already done")
	}
	b.Jitsu.Deregister(bob)
	b.Eng.Run()
	if called != 1 || !errors.Is(got, ErrNoSuchService) || !errors.Is(promoted, ErrNoSuchService) {
		t.Fatalf("joiner heard %v (%d calls), promoter %v; want %v once each", got, called, promoted, ErrNoSuchService)
	}
	if n := b.Hyp.Domains(); n != 1 {
		t.Fatalf("%d domains, want dom0 alone", n)
	}
}

// TestRawSYNWaitsForAdmittedRestore: a raw GET to cold alice arrives
// while bob's admitted disk restore still reads its checkpoint on a
// board that fits one image. Admission counts the memory promised to
// that read, so alice's firing is refused instead of launched past it:
// bob's restore completes, and alice's parked connection is served
// when a refire demotes bob for room.
func TestRawSYNWaitsForAdmittedRestore(t *testing.T) {
	b := New(WithMemory(aliceService().Image.MemMiB), WithDisk(blockdev.DefaultConfig()))
	alice := b.Jitsu.Register(aliceService())
	bob := b.Jitsu.Register(siteService("bob", 21))
	bringTo(t, b, bob, StateColdDisk)
	promoted := errors.New("never ready")
	if err := b.Jitsu.Promote(bob, func(err error) { promoted = err }); err != nil {
		t.Fatalf("Promote bob = %v", err)
	}
	start := b.Eng.Now()
	g := startRawGet(b, rawClient(b), alice, 30*time.Second)
	for b.Syn.Proxied == 0 && b.Eng.Step() {
	}
	if b.Jitsu.act.reading == 0 || bob.State != StateLaunching {
		t.Fatalf("the SYN came after bob's checkpoint read (bob %v)", bob.State)
	}
	b.Eng.Run()
	if promoted != nil {
		t.Fatalf("bob's promote heard %v, want nil", promoted)
	}
	if !g.done || g.err != nil || g.status != 200 || g.at-start > 5*time.Second {
		t.Fatalf("alice's client: done=%v status=%d err=%v after %v", g.done, g.status, g.err, g.at-start)
	}
	if alice.State != StateRunning || bob.State != StateColdDisk {
		t.Fatalf("alice %v, bob %v; want running, and bob demoted for her", alice.State, bob.State)
	}
}

// TestReclaimerGetsTheMemoryFirst: a pressure demotion reclaims alice
// for bob, and alice is fired again while her destroy still runs. Both
// launches join that destroy; the memory goes to the one that claimed
// it first, bob, and alice's relaunch hears ErrNoMemory.
func TestReclaimerGetsTheMemoryFirst(t *testing.T) {
	b := New(WithMemory(aliceService().Image.MemMiB), WithDisk(blockdev.DefaultConfig()))
	alice := b.Jitsu.Register(aliceService())
	bob := b.Jitsu.Register(siteService("bob", 21))
	bringTo(t, b, alice, StateRunning)
	var bobErr, aliceErr error = errors.New("never ready"), errors.New("never ready")
	if err := b.Jitsu.Activate(bob, true, func(err error) { bobErr = err }); err != nil {
		t.Fatalf("Activate bob = %v", err)
	}
	if alice.State != StateColdDisk || !alice.dying {
		t.Fatalf("alice %v dying=%v, want demoted and dying", alice.State, alice.dying)
	}
	if err := b.Jitsu.Activate(alice, true, func(err error) { aliceErr = err }); err != nil {
		t.Fatalf("Activate alice = %v", err)
	}
	b.Eng.Run()
	if bobErr != nil || bob.State != StateRunning {
		t.Fatalf("bob: %v, %v; want running", bob.State, bobErr)
	}
	if !errors.Is(aliceErr, ErrNoMemory) || alice.State != StateColdDisk {
		t.Fatalf("alice: %v, %v; want back on disk with %v", alice.State, aliceErr, ErrNoMemory)
	}
}

// TestDiskReadHoldsItsMemory: a promote's disk restore is admitted
// before its domain is built, while the checkpoint is still read. A
// launch admitted meanwhile must not count that memory as free, or one
// of the two fails in the hypervisor after both were told yes.
func TestDiskReadHoldsItsMemory(t *testing.T) {
	b := New(WithMemory(aliceService().Image.MemMiB), WithDisk(blockdev.DefaultConfig()))
	alice := b.Jitsu.Register(aliceService())
	bob := b.Jitsu.Register(siteService("bob", 21))
	bringTo(t, b, alice, StateColdDisk)
	var promoted error = errors.New("never ready")
	if err := b.Jitsu.Promote(alice, func(err error) { promoted = err }); err != nil {
		t.Fatalf("Promote alice = %v", err)
	}
	if err := b.Jitsu.Activate(bob, true, nil); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("Activate bob while alice's checkpoint is read = %v, want %v", err, ErrNoMemory)
	}
	b.Eng.Run()
	if promoted != nil || alice.State != StateWarmMemory {
		t.Fatalf("alice: %v, %v; want warm-memory", alice.State, promoted)
	}
}
