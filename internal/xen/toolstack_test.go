package xen

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"jitsu/internal/sim"
	"jitsu/internal/xenstore"
)

func newHost(rec xenstore.Reconciler, p *Platform) (*sim.Engine, *Hypervisor) {
	eng := sim.New(42)
	st := xenstore.NewStore(rec)
	return eng, NewHypervisor(eng, st, p, 1024)
}

// buildOne creates one 16MiB unikernel domain and returns the elapsed
// virtual build time.
func buildOne(t *testing.T, ts *Toolstack, name string) sim.Duration {
	t.Helper()
	eng := ts.Hypervisor().Eng
	start := eng.Now()
	var elapsed sim.Duration
	var buildErr error
	done := false
	ts.CreateDomain(DomainConfig{Name: name, Kind: GuestUnikernel, MemMiB: 16, ImageMiB: 1},
		func(d *Domain, err error) {
			done, buildErr, elapsed = true, err, eng.Now()-start
		})
	eng.Run()
	if !done {
		t.Fatal("CreateDomain never completed")
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return elapsed
}

func within(d, lo, hi sim.Duration) bool { return d >= lo && d <= hi }

// TestFig4Calibration checks each toolstack variant hits the paper's
// reported ballpark at 16MiB on ARM (jitter gives ±15%).
func TestFig4Calibration(t *testing.T) {
	cases := []struct {
		name   string
		opts   ToolstackOpts
		lo, hi time.Duration
	}{
		{"vanilla-bash", ToolstackOpts{Hotplug: HotplugBash, Console: true}, 520 * time.Millisecond, 800 * time.Millisecond},
		{"dash", ToolstackOpts{Hotplug: HotplugDash, Console: true}, 240 * time.Millisecond, 380 * time.Millisecond},
		{"ioctl", ToolstackOpts{Hotplug: HotplugIoctl, Console: true}, 160 * time.Millisecond, 250 * time.Millisecond},
		{"parallel", ToolstackOpts{Hotplug: HotplugIoctl, ParallelAttach: true, Console: true}, 120 * time.Millisecond, 210 * time.Millisecond},
		{"no-console", OptimisedOpts(), 90 * time.Millisecond, 160 * time.Millisecond},
	}
	var prev time.Duration
	for i, c := range cases {
		_, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
		ts := NewToolstack(hyp, c.opts)
		got := buildOne(t, ts, "vm")
		if !within(got, c.lo, c.hi) {
			t.Errorf("%s: build = %v, want [%v, %v]", c.name, got, c.lo, c.hi)
		}
		if i > 0 && got >= prev {
			t.Errorf("%s: optimisation did not reduce build time (%v >= %v)", c.name, got, prev)
		}
		prev = got
	}
}

func TestFig4X86SixTimesFaster(t *testing.T) {
	_, hypARM := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
	arm := buildOne(t, NewToolstack(hypARM, OptimisedOpts()), "vm")
	_, hypX86 := newHost(xenstore.JitsuReconciler{}, AMDx86())
	x86 := buildOne(t, NewToolstack(hypX86, OptimisedOpts()), "vm")
	ratio := float64(arm) / float64(x86)
	if ratio < 4 || ratio > 9 {
		t.Errorf("ARM/x86 build ratio = %.1f, want ~6 (arm=%v x86=%v)", ratio, arm, x86)
	}
	if x86 > 40*time.Millisecond {
		t.Errorf("x86 optimised build = %v, want ~20ms", x86)
	}
}

func TestBuildTimeGrowsWithMemory(t *testing.T) {
	var prev sim.Duration
	for i, mem := range []int{16, 64, 256} {
		_, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
		hyp.TotalMemMiB = 2048
		ts := NewToolstack(hyp, VanillaOpts())
		eng := hyp.Eng
		start := eng.Now()
		var elapsed sim.Duration
		ts.CreateDomain(DomainConfig{Name: "vm", MemMiB: mem, ImageMiB: 1},
			func(d *Domain, err error) {
				if err != nil {
					t.Fatal(err)
				}
				elapsed = eng.Now() - start
			})
		eng.Run()
		if i > 0 && elapsed <= prev {
			t.Errorf("mem=%d: build %v not slower than smaller domain %v", mem, elapsed, prev)
		}
		prev = elapsed
	}
	// Vanilla 256MiB should be around a second (paper: "a full second").
	if !within(prev, 800*time.Millisecond, 1300*time.Millisecond) {
		t.Errorf("vanilla 256MiB build = %v, want ≈1s", prev)
	}
}

func TestDomainLifecycle(t *testing.T) {
	_, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
	ts := NewToolstack(hyp, OptimisedOpts())
	eng := hyp.Eng

	var dom *Domain
	ts.CreateDomain(DomainConfig{Name: "web", MemMiB: 16, ImageMiB: 1}, func(d *Domain, err error) {
		if err != nil {
			t.Fatal(err)
		}
		dom = d
	})
	eng.Run()
	if dom == nil || dom.State != StateRunning {
		t.Fatalf("domain = %+v", dom)
	}
	if hyp.DomainByName("web") != dom {
		t.Fatal("DomainByName lookup failed")
	}
	if hyp.FreeMemMiB() != 1024-16 {
		t.Fatalf("free mem = %d", hyp.FreeMemMiB())
	}
	// The XenStore records exist.
	for _, p := range []string{
		dom.XSPath() + "/name",
		fmt.Sprintf("/local/domain/0/backend/vif/%d/0/state", int(dom.ID)),
	} {
		if ok, _ := hyp.Store.Exists(Dom0, nil, p); !ok {
			t.Errorf("missing xenstore record %s", p)
		}
	}

	destroyed := false
	ts.DestroyDomain(dom.ID, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		destroyed = true
	})
	eng.Run()
	if !destroyed {
		t.Fatal("destroy never completed")
	}
	if hyp.FreeMemMiB() != 1024 {
		t.Fatalf("memory not released: %d", hyp.FreeMemMiB())
	}
	if ok, _ := hyp.Store.Exists(Dom0, nil, dom.XSPath()); ok {
		t.Error("xenstore records not cleaned up")
	}
	if _, err := hyp.Domain(dom.ID); !errors.Is(err, ErrNoSuchDomain) {
		t.Error("domain still registered")
	}
}

func TestCreateDomainOutOfMemory(t *testing.T) {
	_, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
	hyp.TotalMemMiB = 32
	ts := NewToolstack(hyp, OptimisedOpts())
	var gotErr error
	ts.CreateDomain(DomainConfig{Name: "big", MemMiB: 64, ImageMiB: 1}, func(d *Domain, err error) {
		gotErr = err
	})
	hyp.Eng.Run()
	if !errors.Is(gotErr, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", gotErr)
	}
}

func TestCreateDomainDuplicateName(t *testing.T) {
	_, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
	ts := NewToolstack(hyp, OptimisedOpts())
	ts.CreateDomain(DomainConfig{Name: "dup", MemMiB: 16, ImageMiB: 1}, func(*Domain, error) {})
	hyp.Eng.Run()
	var gotErr error
	ts.CreateDomain(DomainConfig{Name: "dup", MemMiB: 16, ImageMiB: 1}, func(d *Domain, err error) {
		gotErr = err
	})
	hyp.Eng.Run()
	if !errors.Is(gotErr, ErrAlreadyExists) {
		t.Fatalf("err = %v, want ErrAlreadyExists", gotErr)
	}
}

func TestParallelBuildsContendOnCPU(t *testing.T) {
	// Building N domains at once on a 2-core board must take longer per
	// domain than building one, but far less than N× serial.
	single := func() sim.Duration {
		_, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
		ts := NewToolstack(hyp, OptimisedOpts())
		return buildOne(t, ts, "vm")
	}()

	_, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
	hyp.TotalMemMiB = 4096
	ts := NewToolstack(hyp, OptimisedOpts())
	eng := hyp.Eng
	const n = 8
	doneCount := 0
	start := eng.Now()
	for i := 0; i < n; i++ {
		ts.CreateDomain(DomainConfig{Name: fmt.Sprintf("vm%d", i), MemMiB: 16, ImageMiB: 1},
			func(d *Domain, err error) {
				if err != nil {
					t.Errorf("parallel build: %v", err)
				}
				doneCount++
			})
	}
	eng.Run()
	total := eng.Now() - start
	if doneCount != n {
		t.Fatalf("completed %d/%d", doneCount, n)
	}
	if total <= single {
		t.Errorf("8 parallel builds (%v) not slower than 1 build (%v)", total, single)
	}
	if total >= sim.Duration(n)*single {
		t.Errorf("8 parallel builds (%v) slower than fully serial (%v)", total, sim.Duration(n)*single)
	}
}

func TestTxRetriesByReconciler(t *testing.T) {
	// Parallel creates under the C reconciler must retry transactions;
	// under Jitsu they must not.
	run := func(rec xenstore.Reconciler) uint64 {
		_, hyp := newHost(rec, CubieboardARM())
		hyp.TotalMemMiB = 4096
		ts := NewToolstack(hyp, OptimisedOpts())
		for i := 0; i < 12; i++ {
			ts.CreateDomain(DomainConfig{Name: fmt.Sprintf("vm%d", i), MemMiB: 16, ImageMiB: 1},
				func(d *Domain, err error) {
					if err != nil {
						t.Errorf("%T: %v", rec, err)
					}
				})
		}
		hyp.Eng.Run()
		return ts.TxRetries
	}
	cRetries := run(xenstore.CReconciler{})
	jRetries := run(xenstore.JitsuReconciler{})
	if cRetries == 0 {
		t.Error("C reconciler produced no retries under parallel builds")
	}
	if jRetries > cRetries/2 {
		t.Errorf("Jitsu retries (%d) not much lower than C (%d)", jRetries, cRetries)
	}
}

func TestPrecreatedPoolFastClaim(t *testing.T) {
	_, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
	opts := OptimisedOpts()
	opts.PrecreatePool = 2
	opts.PoolMemMiB = 16
	ts := NewToolstack(hyp, opts)
	hyp.Eng.Run() // let pool refills finish
	if len(ts.pool) != 2 {
		t.Fatalf("pool size = %d", len(ts.pool))
	}
	memBefore := hyp.FreeMemMiB()
	claim := buildOne(t, ts, "svc")
	// Claim must be far faster than a cold build (~120ms): image load only.
	if claim > 30*time.Millisecond {
		t.Errorf("pooled claim took %v, want ≈10ms", claim)
	}
	// The pool refilled itself, so free memory shrank by one more domain.
	if hyp.FreeMemMiB() >= memBefore {
		t.Error("pool refill did not reserve memory (the cost the paper avoids)")
	}
}

func TestEventChannels(t *testing.T) {
	eng, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
	ch := hyp.BindEventChannel(3, 7)
	got := 0
	if err := ch.SetHandler(7, func() { got++ }); err != nil {
		t.Fatal(err)
	}
	if err := ch.Notify(3); err != nil {
		t.Fatal(err)
	}
	// Coalescing: a second notify before delivery folds into one upcall.
	if err := ch.Notify(3); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 1 {
		t.Fatalf("deliveries = %d, want 1 (coalesced)", got)
	}
	ch.Notify(3)
	eng.Run()
	if got != 2 {
		t.Fatalf("deliveries = %d, want 2", got)
	}
	// Wrong domain.
	if err := ch.Notify(99); !errors.Is(err, ErrBadChannel) {
		t.Fatalf("notify from stranger = %v", err)
	}
	// Lookup by id from the peer side.
	peer, err := hyp.LookupEventChannel(ch.ID)
	if err != nil {
		t.Fatal(err)
	}
	peerGot := 0
	peer.SetHandler(3, func() { peerGot++ })
	peer.Notify(7)
	eng.Run()
	if peerGot != 1 {
		t.Fatalf("peer deliveries = %d", peerGot)
	}
	ch.Close()
	if err := ch.Notify(3); !errors.Is(err, ErrBadChannel) {
		t.Fatalf("notify after close = %v", err)
	}
}

func TestGrantTable(t *testing.T) {
	_, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
	ref, pg := hyp.Grant(3)
	pg.Data[0] = 0xAB
	mapped, err := hyp.MapGrant(ref)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Data[0] != 0xAB {
		t.Fatal("grant mapping does not share memory")
	}
	// Shared both ways.
	mapped.Data[1] = 0xCD
	if pg.Data[1] != 0xCD {
		t.Fatal("grant mapping not bidirectional")
	}
	hyp.EndGrant(ref)
	if _, err := hyp.MapGrant(ref); !errors.Is(err, ErrBadGrant) {
		t.Fatalf("map after end = %v", err)
	}
}

func TestDestroyRevokesGrantsAndChannels(t *testing.T) {
	eng, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
	ts := NewToolstack(hyp, OptimisedOpts())
	var dom *Domain
	ts.CreateDomain(DomainConfig{Name: "g", MemMiB: 16, ImageMiB: 1}, func(d *Domain, err error) { dom = d })
	eng.Run()
	ref, _ := hyp.Grant(dom.ID)
	ch := hyp.BindEventChannel(dom.ID, Dom0)
	ts.DestroyDomain(dom.ID, func(err error) {})
	eng.Run()
	if _, err := hyp.MapGrant(ref); err == nil {
		t.Error("grant survived domain destruction")
	}
	if _, err := hyp.LookupEventChannel(ch.ID); err == nil {
		t.Error("event channel survived domain destruction")
	}
}

// buildEvents is what one domain build (dom 1, console attached)
// announces under /local/domain, in order: the build set's 17 nodes and
// 12 values, the vif front's 7 nodes and 4 values, dom0's backend
// directories, 6 keys and their values, then the console's 3 keys. A key
// shows twice: created, then written.
const buildEvents = `
	/local/domain/1
	/local/domain/1/name
	/local/domain/1/name
	/local/domain/1/domid
	/local/domain/1/domid
	/local/domain/1/memory
	/local/domain/1/memory/target
	/local/domain/1/memory/target
	/local/domain/1/memory/static-max
	/local/domain/1/memory/static-max
	/local/domain/1/vm
	/local/domain/1/vm
	/local/domain/1/control
	/local/domain/1/control/shutdown
	/local/domain/1/control/shutdown
	/local/domain/1/console
	/local/domain/1/console/ring-ref
	/local/domain/1/console/ring-ref
	/local/domain/1/console/port
	/local/domain/1/console/port
	/local/domain/1/console/limit
	/local/domain/1/console/limit
	/local/domain/1/console/type
	/local/domain/1/console/type
	/local/domain/1/store
	/local/domain/1/store/ring-ref
	/local/domain/1/store/ring-ref
	/local/domain/1/store/port
	/local/domain/1/store/port
	/local/domain/1/device
	/local/domain/1/device/vif
	/local/domain/1/device/vif/0
	/local/domain/1/device/vif/0/backend
	/local/domain/1/device/vif/0/backend
	/local/domain/1/device/vif/0/backend-id
	/local/domain/1/device/vif/0/backend-id
	/local/domain/1/device/vif/0/mac
	/local/domain/1/device/vif/0/mac
	/local/domain/1/device/vif/0/state
	/local/domain/1/device/vif/0/state
	/local/domain/0
	/local/domain/0/backend
	/local/domain/0/backend/vif
	/local/domain/0/backend/vif/1
	/local/domain/0/backend/vif/1/0
	/local/domain/0/backend/vif/1/0/frontend
	/local/domain/0/backend/vif/1/0/frontend
	/local/domain/0/backend/vif/1/0/frontend-id
	/local/domain/0/backend/vif/1/0/frontend-id
	/local/domain/0/backend/vif/1/0/mac
	/local/domain/0/backend/vif/1/0/mac
	/local/domain/0/backend/vif/1/0/bridge
	/local/domain/0/backend/vif/1/0/bridge
	/local/domain/0/backend/vif/1/0/handle
	/local/domain/0/backend/vif/1/0/handle
	/local/domain/0/backend/vif/1/0/state
	/local/domain/0/backend/vif/1/0/state
	/local/domain/1/console/tty
	/local/domain/1/console/tty
	/local/domain/1/console/state
	/local/domain/1/console/state
	/local/domain/1/console/output
	/local/domain/1/console/output
`

// The record sets are ordered tables, so one domain build logs — and at
// commit announces — its keys in the same order in every world, and in
// the order committed above: a reorder every world shared would pass a
// comparison of worlds with each other. (They were Go maps once: twelve
// keys in a fresh order every run.)
func TestBuildRecordOrderIsFixed(t *testing.T) {
	want := strings.Fields(buildEvents)
	for world := 0; world < 20; world++ {
		_, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
		var events []string
		if _, err := hyp.Store.WatchPath(Dom0, "/local/domain", "t", func(path, _ string) { events = append(events, path) }); err != nil {
			t.Fatal(err)
		}
		buildOne(t, NewToolstack(hyp, ToolstackOpts{Hotplug: HotplugIoctl, Console: true}), "vm")
		if len(events) == 0 || events[0] != "/local/domain" || !slices.Equal(events[1:], want) {
			t.Fatalf("world %d: the registration, then the build, vif and console sets in their order:\n got %v\nwant %v", world, events, want)
		}
	}
}
