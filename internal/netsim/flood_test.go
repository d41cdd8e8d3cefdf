package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"jitsu/internal/sim"
)

// refBridge is the bridge as it was before a flood became one event: it
// books one hop per egress port. TestFloodMatchesPerPortHops holds the
// two to the same deliveries.
type refBridge struct {
	eng   *sim.Engine
	delay sim.Duration
	ports []*refPort
	table map[MAC]*refPort
	fab   fabric
}

type refPort struct {
	b   *refBridge
	dst Port
}

func (p *refPort) Deliver(frame []byte) { p.b.input(p, frame) }

func (b *refBridge) input(in *refPort, frame []byte) {
	if len(frame) < 14 {
		return
	}
	var dst, src MAC
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])
	if !src.IsBroadcast() {
		b.table[src] = in
	}
	if !dst.IsBroadcast() {
		if out, ok := b.table[dst]; ok {
			if out != in {
				b.fab.book(b.eng, b.delay, out.dst, frame, nil, "")
			}
			return
		}
	}
	for _, p := range b.ports {
		if p != in {
			b.fab.book(b.eng, b.delay, p.dst, frame, nil, "")
		}
	}
}

func (b *refBridge) connect(nic *NIC, latency sim.Duration, bitsPerSec float64) Port {
	l := &Link{eng: b.eng, Latency: latency, BitsPerSec: bitsPerSec, fab: &b.fab}
	p := &refPort{b: b}
	b.ports = append(b.ports, p)
	l.aEnd = linkEnd{link: l, dst: p}
	l.bEnd = linkEnd{link: l, dst: nic}
	p.dst = &l.bEnd
	nic.peer = &l.aEnd
	return p
}

func (b *refBridge) remove(port Port) {
	p := port.(*refPort)
	b.ports = slices.DeleteFunc(b.ports, func(x *refPort) bool { return x == p })
	for mac, owner := range b.table {
		if owner == p {
			delete(b.table, mac)
		}
	}
}

// floodWorld is one bridge, either kind, and the NICs a seeded stream
// plugs into it; log is every delivery as "instant nic frame".
type floodWorld struct {
	eng     *sim.Engine
	connect func(*NIC, sim.Duration, float64) Port
	remove  func(Port)
	nics    []*NIC
	ports   []Port // nil once removed
	log     []string
}

// add plugs in a NIC whose handler logs each frame and answers some
// broadcasts with a unicast to their sender, so deliveries book
// follow-on frames at the instant of the flood.
func (w *floodWorld) add(latency sim.Duration, bitsPerSec float64) {
	i := len(w.nics)
	nic := NewNIC(w.eng, fmt.Sprint("n", i), MACFor(i+1))
	nic.SetHandler(func(f []byte) {
		w.log = append(w.log, fmt.Sprintf("%d %s %x", w.eng.Now(), nic.Name, f))
		if f[0] == 0xff && (int(f[len(f)-1])+i)%3 == 0 {
			var src MAC
			copy(src[:], f[6:12])
			nic.Send(frame(src, nic.Addr, fmt.Sprint("re:", nic.Name, ":", string(f[14:]))))
		}
	})
	w.nics = append(w.nics, nic)
	w.ports = append(w.ports, w.connect(nic, latency, bitsPerSec))
}

func TestFloodMatchesPerPortHops(t *testing.T) {
	latencies := []sim.Duration{0, 20 * time.Microsecond, 180 * time.Microsecond}
	rates := []float64{0, 100e6, 1e9}
	for seed := int64(1); seed <= 50; seed++ {
		var worlds [2]*floodWorld
		for k := range worlds {
			eng := sim.New(seed)
			w := &floodWorld{eng: eng}
			if k == 0 {
				br := NewBridge(eng, "xenbr0", 10*time.Microsecond)
				w.connect, w.remove = br.ConnectNIC, br.RemovePort
			} else {
				ref := &refBridge{eng: eng, delay: 10 * time.Microsecond, table: make(map[MAC]*refPort)}
				w.connect, w.remove = ref.connect, ref.remove
			}
			worlds[k] = w
		}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 300; step++ {
			op, a, b, c := rng.Intn(10), rng.Int(), rng.Int(), rng.Intn(20)
			for _, w := range worlds {
				switch {
				case op == 0 || len(w.nics) < 2:
					w.add(latencies[a%len(latencies)], rates[b%len(rates)])
				case op == 1:
					if i := a % len(w.ports); w.ports[i] != nil {
						w.remove(w.ports[i])
						w.ports[i] = nil
					}
				case op <= 4:
					from := w.nics[a%len(w.nics)]
					from.Send(frame(Broadcast, from.Addr, fmt.Sprint("b", step)))
				case op <= 7:
					from := w.nics[a%len(w.nics)]
					from.Send(frame(MACFor(1+b%(len(w.nics)+2)), from.Addr, fmt.Sprint("u", step)))
				default:
					w.eng.RunFor(sim.Duration(c) * 10 * time.Microsecond)
				}
			}
		}
		for _, w := range worlds {
			w.eng.Run()
		}
		got, want := worlds[0].log, worlds[1].log
		if len(got) == 0 || !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: %d deliveries, reference %d; first difference at %d", seed, len(got), len(want), i)
		}
	}
}
