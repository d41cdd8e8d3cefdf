package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"jitsu/internal/blockdev"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/xen"
)

// FuzzLifecycle plays a stream of Activate, Evict, Demote, Promote,
// Deregister and raw-SYN GETs, 0–50 virtual ms apart, on a board whose
// memory fits exactly one instance, on the same board with a disk (so
// pressure demotions make launches join their victims' destroys) and
// on a roomy board with a disk, and checks the activation's books once
// the engine drains. Each op is three bytes: the verb, the service,
// the gap before the next op.
func FuzzLifecycle(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		ops := make([]byte, 120)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, board := range []struct {
			name string
			opts []Option
		}{
			{"exact-fit", []Option{WithMemory(16)}},
			{"roomy-disk", []Option{WithDisk(blockdev.DefaultConfig())}},
			{"exact-fit-disk", []Option{WithMemory(16), WithDisk(blockdev.DefaultConfig())}},
		} {
			t.Run(board.name, func(t *testing.T) { playLifecycle(t, New(board.opts...), ops) })
		}
	})
}

// lifecycleWorld is one FuzzLifecycle run: three services, one client,
// and the outcome of every callback it armed.
type lifecycleWorld struct {
	t       *testing.T
	b       *Board
	svcs    []*Service
	client  *netstack.Host
	retired []bool
	// readies[i] counts the calls of the i-th armed OnReady; errs holds
	// every error a verb or an OnReady reported.
	readies []int
	errs    []error
	// gets[i] is a raw GET to svcs[getSvc[i]]; cut[i] marks one whose
	// service an Evict, Demote or Deregister took away mid-fetch.
	gets   []*rawGet
	getSvc []int
	cut    []bool
}

func playLifecycle(t *testing.T, b *Board, ops []byte) {
	w := &lifecycleWorld{t: t, b: b, client: b.AddClient("fuzz-client", netstack.IPv4(10, 0, 0, 9))}
	for i, name := range []string{"alice", "bob", "carol"} {
		cfg := siteService(name, byte(20+i))
		// carol reaps herself, so teardowns also race the verbs.
		cfg.IdleTimeout = sim.Duration(i/2) * 300 * time.Millisecond
		w.svcs = append(w.svcs, b.Jitsu.Register(cfg))
	}
	w.retired = make([]bool, len(w.svcs))
	at := sim.Duration(0)
	for i := 0; i+2 < len(ops); i += 3 {
		verb, idx := ops[i]%16, int(ops[i+1])%len(w.svcs)
		b.Eng.At(at, func() { w.do(verb, idx) })
		at += sim.Duration(ops[i+2]%51) * time.Millisecond
	}
	b.Eng.Run()
	w.check()
}

// armed returns an OnReady that books its calls and error.
func (w *lifecycleWorld) armed() func(error) {
	i := len(w.readies)
	w.readies = append(w.readies, 0)
	return func(err error) {
		w.readies[i]++
		w.note(err)
	}
}

func (w *lifecycleWorld) note(err error) {
	if err != nil {
		w.errs = append(w.errs, err)
	}
}

// disarm drops the OnReady just armed: its verb refused, so it must
// never fire.
func (w *lifecycleWorld) disarm(err error) {
	if err != nil {
		w.readies[len(w.readies)-1] = -1
	}
	w.note(err)
}

func (w *lifecycleWorld) do(verb byte, idx int) {
	j, svc := w.b.Jitsu, w.svcs[idx]
	switch {
	case verb < 5:
		w.disarm(j.Activate(svc, verb < 3, w.armed()))
	case verb < 7:
		w.cutGets(idx, j.Evict(svc))
	case verb < 9:
		w.cutGets(idx, j.Demote(svc) == nil) // a refusal names the tier, not a lost client
	case verb < 11:
		if err := j.Promote(svc, w.armed()); errors.Is(err, ErrNotOnDisk) {
			w.readies[len(w.readies)-1] = -1 // a refusal by tier, like Demote's
		} else {
			w.disarm(err)
		}
	case verb < 15:
		if !w.retired[idx] {
			w.gets = append(w.gets, startRawGet(w.b, w.client, svc, time.Minute))
			w.getSvc = append(w.getSvc, idx)
			w.cut = append(w.cut, false)
		}
	default:
		w.retired[idx] = true
		w.cutGets(idx, j.Deregister(svc))
	}
}

// cutGets marks the GETs still pending on svcs[idx] when a forced verb
// took its replica away: a guest destroyed with its reply unsent loses
// a client that has nothing left to retransmit, by the verb's design.
func (w *lifecycleWorld) cutGets(idx int, took bool) {
	for i, g := range w.gets {
		if took && w.getSvc[i] == idx && !g.done {
			w.cut[i] = true
		}
	}
}

func (w *lifecycleWorld) check() {
	t, b := w.t, w.b
	for i, n := range w.readies {
		if n != -1 && n != 1 {
			t.Errorf("OnReady #%d fired %d times, want once", i, n)
		}
	}
	for _, err := range w.errs {
		if !errors.Is(err, ErrNoMemory) && !errors.Is(err, ErrNoSuchService) {
			t.Errorf("lifecycle error %v, want only %v or %v", err, ErrNoMemory, ErrNoSuchService)
		}
	}
	for i, g := range w.gets {
		switch {
		case !g.done:
			t.Errorf("GET #%d never finished", i)
		case g.err == nil && g.status != 200:
			t.Errorf("GET #%d: status %d", i, g.status)
		case g.err != nil && !errors.Is(g.err, netstack.ErrConnReset) && !w.cut[i]:
			t.Errorf("GET #%d to %s: %v", i, w.svcs[w.getSvc[i]].Cfg.Name, g.err)
		}
	}
	booted, used := 0, 0
	for _, svc := range w.svcs {
		name := fmt.Sprintf("%s (%v)", svc.Cfg.Name, svc.State)
		if svc.dying || len(svc.joined) != 0 || len(svc.conns) != 0 || svc.refires != 0 || len(svc.waiters) != 0 {
			t.Errorf("%s left dying=%v joined=%v parked=%d refires=%d waiters=%d",
				name, svc.dying, len(svc.joined) != 0, len(svc.conns), svc.refires, len(svc.waiters))
		}
		if svc.State == StateLaunching {
			t.Errorf("%s still launching at quiescence", name)
		}
		d := b.Hyp.DomainByName(svc.Cfg.Image.Name)
		if d != nil && d.State == xen.StateShutdown {
			t.Errorf("%s: domain %d still shutting down", name, d.ID)
		}
		if svc.State.Booted() {
			booted++
			used += svc.Cfg.Image.MemMiB
		}
		if (d != nil) != svc.State.Booted() {
			t.Errorf("%s: domain %v", name, d)
		}
	}
	if b.Jitsu.act.hungry != 0 {
		t.Errorf("hungry = %d at quiescence", b.Jitsu.act.hungry)
	}
	if got := b.Hyp.Domains(); got != 1+booted {
		t.Errorf("%d domains, want dom0 and %d booted guests", got, booted)
	}
	if got, want := b.Hyp.FreeMemMiB(), b.Hyp.TotalMemMiB-used; got != want {
		t.Errorf("free memory %d MiB, want %d (total less the booted guests)", got, want)
	}
}
