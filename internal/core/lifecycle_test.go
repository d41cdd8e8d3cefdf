package core

import (
	"strings"
	"testing"
	"time"

	"jitsu/internal/blockdev"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// diskBoard is a board with the default checkpoint store attached —
// the three-tier configuration every lifecycle test runs on.
func diskBoard() *Board {
	return New(WithDisk(blockdev.DefaultConfig()))
}

// bringTo drives a fresh service into the requested lifecycle tier via
// the public verbs only.
func bringTo(t *testing.T, b *Board, svc *Service, st ServiceState) {
	t.Helper()
	switch st {
	case StateCold:
		// Registration state.
	case StateRunning:
		if err := b.Jitsu.Activate(svc, true, nil); err != nil {
			t.Fatal(err)
		}
		b.Eng.Run()
	case StateWarmMemory:
		if err := b.Jitsu.Activate(svc, false, nil); err != nil {
			t.Fatal(err)
		}
		b.Eng.Run()
	case StateColdDisk:
		if err := b.Jitsu.Activate(svc, false, nil); err != nil {
			t.Fatal(err)
		}
		b.Eng.Run()
		if err := b.Jitsu.Demote(svc); err != nil {
			t.Fatal(err)
		}
		b.Eng.Run()
	case StateLaunching:
		if err := b.Jitsu.Activate(svc, false, nil); err != nil {
			t.Fatal(err)
		}
		// No Run: the launch stays in flight.
	}
	if svc.State != st {
		t.Fatalf("bringTo(%v): state = %v", st, svc.State)
	}
}

// TestServiceStatePredicates pins the tier helpers every call site
// branches on: which states can serve, which need a launch leg, which
// occupy board resources.
func TestServiceStatePredicates(t *testing.T) {
	cases := []struct {
		st                            ServiceState
		str                           string
		booted, needsLaunch, resident bool
	}{
		{StateCold, "cold", false, true, false},
		{StateLaunching, "launching", false, false, true},
		{StateRunning, "running", true, false, true},
		{StateWarmMemory, "warm-memory", true, false, true},
		{StateColdDisk, "cold-disk", false, true, true},
		{ServiceState(99), "invalid", false, false, true},
	}
	for _, c := range cases {
		if got := c.st.String(); got != c.str {
			t.Errorf("%d.String() = %q, want %q", int(c.st), got, c.str)
		}
		if got := c.st.Booted(); got != c.booted {
			t.Errorf("%v.Booted() = %v", c.st, got)
		}
		if got := c.st.NeedsLaunch(); got != c.needsLaunch {
			t.Errorf("%v.NeedsLaunch() = %v", c.st, got)
		}
		if got := c.st.Resident(); got != c.resident {
			t.Errorf("%v.Resident() = %v", c.st, got)
		}
	}
}

// TestLifecycleVerbMatrix drives every lifecycle verb against every
// start tier and pins the (error, end-state) pair — the transition
// matrix of the running ↔ warm-memory → cold-disk → cold lifecycle.
func TestLifecycleVerbMatrix(t *testing.T) {
	type verdict struct {
		err   error
		state ServiceState
	}
	cases := []struct {
		from ServiceState
		verb string
		want verdict
	}{
		{StateCold, "demote", verdict{ErrNotBooted, StateCold}},
		{StateCold, "promote", verdict{ErrNotOnDisk, StateCold}},
		{StateCold, "evict", verdict{nil, StateCold}},
		{StateCold, "activate", verdict{nil, StateRunning}},

		// A launch in flight is not yet demotable; eviction is a no-op
		// and the speculative launch completes into WarmMemory.
		{StateLaunching, "demote", verdict{ErrNotBooted, StateWarmMemory}},
		{StateLaunching, "evict", verdict{nil, StateWarmMemory}},

		{StateRunning, "demote", verdict{nil, StateColdDisk}},
		{StateRunning, "promote", verdict{ErrNotOnDisk, StateRunning}},
		{StateRunning, "evict", verdict{nil, StateCold}},
		{StateRunning, "activate", verdict{nil, StateRunning}},

		{StateWarmMemory, "demote", verdict{nil, StateColdDisk}},
		{StateWarmMemory, "promote", verdict{ErrNotOnDisk, StateWarmMemory}},
		{StateWarmMemory, "evict", verdict{nil, StateCold}},
		// The warm hit: a client-driven firing flips the tier with no
		// launch cost.
		{StateWarmMemory, "activate", verdict{nil, StateRunning}},

		{StateColdDisk, "demote", verdict{ErrNotBooted, StateColdDisk}},
		{StateColdDisk, "promote", verdict{nil, StateWarmMemory}},
		{StateColdDisk, "evict", verdict{nil, StateCold}},
		// The disk restore: a client-driven firing pages back in and
		// lands Running.
		{StateColdDisk, "activate", verdict{nil, StateRunning}},
	}
	for _, c := range cases {
		t.Run(c.from.String()+"/"+c.verb, func(t *testing.T) {
			b := diskBoard()
			svc := b.Jitsu.Register(aliceService())
			bringTo(t, b, svc, c.from)
			var err error
			switch c.verb {
			case "demote":
				err = b.Jitsu.Demote(svc)
			case "promote":
				err = b.Jitsu.Promote(svc, nil)
			case "evict":
				b.Jitsu.Evict(svc)
			case "activate":
				err = b.Jitsu.Activate(svc, true, nil)
			}
			b.Eng.Run()
			if err != c.want.err {
				t.Fatalf("%s from %v: err = %v, want %v", c.verb, c.from, err, c.want.err)
			}
			if svc.State != c.want.state {
				t.Fatalf("%s from %v: state = %v, want %v", c.verb, c.from, svc.State, c.want.state)
			}
		})
	}
}

// TestEvictReportsWork pins Evict's boolean: true only when a VM was
// destroyed or checkpoint slots were freed.
func TestEvictReportsWork(t *testing.T) {
	cases := []struct {
		from ServiceState
		want bool
	}{
		{StateCold, false},
		{StateLaunching, false},
		{StateRunning, true},
		{StateWarmMemory, true},
		{StateColdDisk, true},
	}
	for _, c := range cases {
		b := diskBoard()
		svc := b.Jitsu.Register(aliceService())
		bringTo(t, b, svc, c.from)
		if got := b.Jitsu.Evict(svc); got != c.want {
			t.Errorf("Evict from %v = %v, want %v", c.from, got, c.want)
		}
		b.Eng.Run()
	}
}

// TestDemoteWhileActivationInFlight: a demotion racing an in-flight
// launch must refuse with ErrNotBooted — there is no live VM to
// checkpoint yet — and leave the launch to complete normally.
func TestDemoteWhileActivationInFlight(t *testing.T) {
	b := diskBoard()
	svc := b.Jitsu.Register(aliceService())
	readyCalled := false
	var ready error
	if err := b.Jitsu.Activate(svc, true, func(err error) { readyCalled, ready = true, err }); err != nil {
		t.Fatal(err)
	}
	if svc.State != StateLaunching {
		t.Fatalf("state = %v, want launching", svc.State)
	}
	if err := b.Jitsu.Demote(svc); err != ErrNotBooted {
		t.Fatalf("Demote mid-launch = %v, want ErrNotBooted", err)
	}
	b.Eng.Run()
	if !readyCalled || ready != nil {
		t.Fatalf("launch did not complete cleanly: called=%v err=%v", readyCalled, ready)
	}
	if svc.State != StateRunning || svc.Launches != 1 {
		t.Fatalf("after launch: state = %v launches = %d", svc.State, svc.Launches)
	}
	// Now booted, the demotion goes through.
	if err := b.Jitsu.Demote(svc); err != nil {
		t.Fatal(err)
	}
	b.Eng.Run()
	if svc.State != StateColdDisk {
		t.Fatalf("state = %v, want cold-disk", svc.State)
	}
}

// TestPromoteRacingClientBoot: a control-plane Promote starts the disk
// restore toward WarmMemory; a client-driven firing arriving while the
// restore is in flight joins it (no second launch) and upgrades the
// completion tier to Running.
func TestPromoteRacingClientBoot(t *testing.T) {
	b := diskBoard()
	svc := b.Jitsu.Register(aliceService())
	bringTo(t, b, svc, StateColdDisk)
	launches := svc.Launches

	promoted := false
	if err := b.Jitsu.Promote(svc, func(err error) {
		if err != nil {
			t.Errorf("promote: %v", err)
		}
		promoted = true
	}); err != nil {
		t.Fatal(err)
	}
	if svc.State != StateLaunching {
		t.Fatalf("state after Promote = %v, want launching", svc.State)
	}

	// The race: a client activation lands mid-restore.
	served := false
	if err := b.Jitsu.Activate(svc, true, func(err error) {
		if err != nil {
			t.Errorf("activate: %v", err)
		}
		served = true
	}); err != nil {
		t.Fatal(err)
	}
	b.Eng.Run()

	if !promoted || !served {
		t.Fatalf("callbacks: promoted=%v served=%v", promoted, served)
	}
	if svc.State != StateRunning {
		t.Fatalf("state = %v, want running (client joined the promote)", svc.State)
	}
	if svc.Launches != launches+1 {
		t.Fatalf("launches = %d, want %d (single shared restore leg)", svc.Launches, launches+1)
	}
	if svc.DiskRestores != 1 {
		t.Fatalf("disk restores = %d, want 1", svc.DiskRestores)
	}
}

// TestDemoteForRoomRefusesWhenDiskFull: the memory-pressure demotion
// plans against the checkpoint store; with no free slots it demotes
// nobody and the activation refuses with ErrNoMemory, leaving the
// fallback-to-eviction decision to the caller (the cluster scheduler
// pins that half in TestPreemptDiskFullFallsBackToEviction).
func TestDemoteForRoomRefusesWhenDiskFull(t *testing.T) {
	img := aliceService().Image
	// Memory for one guest, disk for one checkpoint.
	b := New(WithMemory(img.MemMiB),
		WithDisk(blockdev.Config{
			SlotMiB: aliceService().StateSizeMiB(), Slots: 1,
			SeekTime: 6 * time.Millisecond, BytesPerSec: 40e6,
		}))
	mk := func(i byte, name string) *Service {
		cfg := aliceService()
		cfg.Name = name
		cfg.IP = netstack.IPv4(10, 0, 0, 100+i)
		return b.Jitsu.Register(cfg)
	}
	a, c, d := mk(0, "a.family.name"), mk(1, "c.family.name"), mk(2, "d.family.name")

	bringTo(t, b, a, StateRunning)
	// Pressure demotes the LRU victim onto the single disk slot.
	if err := b.Jitsu.Activate(c, true, nil); err != nil {
		t.Fatal(err)
	}
	b.Eng.Run()
	if a.State != StateColdDisk || c.State != StateRunning {
		t.Fatalf("after first pressure: a=%v c=%v", a.State, c.State)
	}
	// The store is full: the next pressure plan cannot park the victim,
	// so the firing refuses rather than silently evicting.
	if err := b.Jitsu.Activate(d, true, nil); err != ErrNoMemory {
		t.Fatalf("Activate with full disk = %v, want ErrNoMemory", err)
	}
	if c.State != StateRunning || d.State != StateCold {
		t.Fatalf("refusal mutated states: c=%v d=%v", c.State, d.State)
	}
	// The caller's fallback: explicit eviction frees memory, the launch
	// then proceeds.
	if !b.Jitsu.Evict(c) {
		t.Fatal("Evict refused")
	}
	b.Eng.Run()
	if err := b.Jitsu.Activate(d, true, nil); err != nil {
		t.Fatal(err)
	}
	b.Eng.Run()
	if d.State != StateRunning {
		t.Fatalf("d = %v, want running", d.State)
	}
}

// TestDiskRestoreAfterEpochBump: a replica parked on disk must survive
// a DNS state-epoch bump (board joins/leaves move the epoch so cached
// answers die) — the next client fetch pages it in from disk and
// serves, rather than cold-booting or failing.
func TestDiskRestoreAfterEpochBump(t *testing.T) {
	b := diskBoard()
	svc := b.Jitsu.Register(aliceService())
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))
	bringTo(t, b, svc, StateColdDisk)

	before := b.DNS.Epoch
	b.DNS.BumpEpoch()
	if b.DNS.Epoch == before {
		t.Fatal("epoch did not move")
	}

	var resp *netstack.HTTPResponse
	var gotErr error
	b.FetchViaDNS(client, "alice.family.name", "/", 10*time.Second,
		func(r *netstack.HTTPResponse, _ sim.Duration, err error) {
			resp, gotErr = r, err
		})
	b.Eng.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "alice") {
		t.Fatalf("resp = %+v", resp)
	}
	if svc.DiskRestores != 1 || svc.State != StateRunning {
		t.Fatalf("disk restores = %d state = %v, want 1/running", svc.DiskRestores, svc.State)
	}
}

// TestDeregisterWhileLaunchInFlight: retiring a service mid-boot (its
// board left the directory, or a federation shed re-homed it) must tear
// the half-built guest down when the launch completes — not resurrect
// the registration, not leak the domain, and not hand the toolstack a
// nil completion callback.
func TestDeregisterWhileLaunchInFlight(t *testing.T) {
	b := New()
	svc := b.Jitsu.Register(aliceService())
	memBefore, domsBefore := b.Hyp.FreeMemMiB(), b.Hyp.Domains()
	var ready error
	if err := b.Jitsu.Activate(svc, true, func(err error) { ready = err }); err != nil {
		t.Fatal(err)
	}
	if svc.State != StateLaunching {
		t.Fatalf("state = %v, want launching", svc.State)
	}
	if !b.Jitsu.Deregister(svc) {
		t.Fatal("Deregister refused a registered service")
	}
	b.Eng.Run()
	if ready == nil {
		t.Fatal("launch of a retired service reported ready")
	}
	if svc.State != StateCold || svc.Guest != nil {
		t.Fatalf("retired service left state = %v guest = %v", svc.State, svc.Guest)
	}
	if got := b.Hyp.Domains(); got != domsBefore {
		t.Fatalf("domains = %d, want %d (retired guest leaked)", got, domsBefore)
	}
	if got := b.Hyp.FreeMemMiB(); got != memBefore {
		t.Fatalf("free memory = %d MiB, want the pre-launch %d", got, memBefore)
	}
}
