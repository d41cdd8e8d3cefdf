package dns

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// refClient and refQuery are the resolver as it stood before its
// queries moved onto a sim.Requests table: its own deadline event, its
// own retransmit event and a settle-once finish. They are the reference
// TestQueryMatchesReference holds Client to.
type refClient struct {
	Host    *netstack.Host
	Retry   sim.Backoff
	Retries uint64
	nextID  uint16
}

func (c *refClient) Query(server netstack.IP, name string, typ Type, timeout sim.Duration, done func(*Message, sim.Duration, error)) {
	c.nextID++
	q := &refQuery{c: c, server: server, id: c.nextID, srcPort: uint16(clientPortLo + c.nextID%50000),
		name: CanonicalName(name), start: c.Host.Eng.Now(), done: done}
	questions := [1]Question{{Name: q.name, Type: typ, Class: ClassIN}}
	m := Message{ID: q.id, RecursionDesired: true, Questions: questions[:]}
	wire, err := m.AppendEncode(q.wireBuf[:0])
	if err != nil {
		done(nil, 0, err)
		return
	}
	q.wire = wire
	for tries := 0; c.Host.BindDatagrams(q.srcPort, q) != nil; tries++ {
		if tries > 1000 {
			done(nil, 0, netstack.ErrPortInUse)
			return
		}
		q.srcPort = nextSrcPort(q.srcPort)
	}
	q.timer = c.Host.Eng.AfterHandler(timeout, q)
	q.arm()
	c.Host.SendUDP(server, q.srcPort, 53, wire)
}

type refQuery struct {
	c                 *refClient
	server            netstack.IP
	id, srcPort       uint16
	name              string
	wire              []byte
	wireBuf           [64]byte
	reply             decoded
	start             sim.Duration
	timer, retransmit sim.Event
	attempt           int
	done              func(*Message, sim.Duration, error)
}

func (q *refQuery) finish(m *Message, rtt sim.Duration, err error) {
	done := q.done
	q.done = nil
	q.c.Host.Eng.Cancel(q.timer)
	q.c.Host.Eng.Cancel(q.retransmit)
	q.c.Host.UnbindUDP(q.srcPort)
	done(m, rtt, err)
}

func (q *refQuery) Datagram(_ netstack.IP, _ uint16, payload []byte) {
	if q.done == nil {
		return
	}
	if err := decodeInto(payload, &q.reply, q.name); err != nil || q.reply.ID != q.id {
		return
	}
	q.finish(&q.reply.Message, q.c.Host.Eng.Now()-q.start, nil)
}

func (q *refQuery) Fire() {
	if q.done != nil {
		q.finish(nil, 0, netstack.ErrTimeout)
	}
}

func (q *refQuery) arm() {
	if wait, ok := q.c.Retry.Next(q.attempt, q.c.Host.Eng.Rand()); ok {
		q.retransmit = q.c.Host.Eng.AfterHandler(wait, (*refResend)(q))
	}
}

type refResend refQuery

func (r *refResend) Fire() {
	q := (*refQuery)(r)
	if q.done == nil {
		return
	}
	q.attempt++
	q.c.Retries++
	q.c.Host.SendUDP(q.server, q.srcPort, 53, q.wire)
	q.arm()
}

// resolver is what the differential test drives: Client or refClient.
type resolver interface {
	Query(netstack.IP, string, Type, sim.Duration, func(*Message, sim.Duration, error))
	retries() uint64
}

func (c *Client) retries() uint64    { return c.Retries }
func (c *refClient) retries() uint64 { return c.Retries }

// scriptedWorld is a client host and a responder on port 53 whose every
// decision — drop a query, answer it after a delay, answer it twice,
// answer first under a wrong ID — comes from a script source seeded
// apart from the engine, so two worlds built from one seed see the same
// stream of replies, losses and duplicates as long as their clients
// send the same datagrams at the same instants.
func scriptedWorld(t *testing.T, seed int64) (*sim.Engine, *netstack.Host, netstack.IP) {
	eng := sim.New(seed)
	br := netsim.NewBridge(eng, "br", 10*time.Microsecond)
	nicC := netsim.NewNIC(eng, "client", netsim.MACFor(1))
	nicS := netsim.NewNIC(eng, "ns", netsim.MACFor(2))
	br.ConnectNIC(nicC, 150*time.Microsecond, 0)
	br.ConnectNIC(nicS, 20*time.Microsecond, 0)
	client := netstack.NewHost(eng, "client", nicC, netstack.IPv4(10, 0, 0, 9), netstack.LinuxNativeProfile())
	ns := netstack.NewHost(eng, "ns", nicS, netstack.IPv4(10, 0, 0, 1), netstack.MirageProfile())
	script := rand.New(rand.NewSource(seed * 7919))
	reply := func(src netstack.IP, port uint16, q *Message, id uint16) {
		m := Message{ID: id, Response: true, Questions: q.Questions,
			Answers: []RR{{Name: q.Questions[0].Name, Type: TypeA, Class: ClassIN, TTL: 60, A: netstack.IPv4(10, 0, 0, byte(q.ID))}}}
		wire, err := m.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		ns.SendUDP(src, 53, port, wire)
	}
	err := ns.BindUDP(53, func(src netstack.IP, port uint16, payload []byte) {
		q, err := Decode(payload)
		if err != nil || len(q.Questions) != 1 {
			t.Fatalf("responder got a bad query: %v", err)
		}
		if script.Float64() < 0.35 {
			return // lost
		}
		delay := time.Duration(script.Int63n(int64(500 * time.Millisecond)))
		if script.Float64() < 0.15 {
			eng.After(delay/2, func() { reply(src, port, q, q.ID+1) })
		}
		eng.After(delay, func() { reply(src, port, q, q.ID) })
		if script.Float64() < 0.3 {
			eng.After(delay+time.Duration(script.Int63n(int64(100*time.Millisecond))), func() { reply(src, port, q, q.ID) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, client, ns.IP
}

// TestQueryMatchesReference drives Client and the reference resolver
// through the same seeded streams of replies, losses and duplicates,
// one to three concurrent queries per exchange under each retry profile
// and deadline, and holds every exchange's callbacks (outcome, RTT,
// answer, virtual instant, events fired by then), Retries, and the
// engine's random source after it to be identical: the table keeps the
// resolver's booking order — deadline, retransmit with its jitter draw,
// datagram — so every seq and every draw lands where it did.
func TestQueryMatchesReference(t *testing.T) {
	profiles := []sim.Backoff{DefaultRetry(), {}, {Initial: 100 * time.Millisecond, Factor: 1.5, Jitter: 0.9, Retries: 6}}
	timeouts := []sim.Duration{150 * time.Millisecond, time.Second, 3 * time.Second}
	for seed := int64(1); seed <= 12; seed++ {
		for pi, retry := range profiles {
			run := func(c resolver, eng *sim.Engine, server netstack.IP) []string {
				var log []string
				pick := rand.New(rand.NewSource(seed))
				for ex := 0; ex < 25; ex++ {
					for i := range 1 + pick.Intn(3) {
						name := fmt.Sprintf("q%d-%d.family.name", ex, i)
						c.Query(server, name, TypeA, timeouts[pick.Intn(len(timeouts))], func(m *Message, rtt sim.Duration, err error) {
							answer := "-"
							if m != nil {
								answer = fmt.Sprintf("%d %v", m.ID, m.Answers[0].A)
							}
							log = append(log, fmt.Sprintf("%s at %v fired %d: rtt %v err %v answer %s", name, eng.Now(), eng.Fired(), rtt, err, answer))
						})
					}
					eng.Run()
					log = append(log, fmt.Sprintf("exchange %d: retries %d, rng %d, pending %d", ex, c.retries(), eng.Rand().Int63(), eng.Pending()))
				}
				return log
			}
			eng, host, server := scriptedWorld(t, seed)
			got := run(&Client{Host: host, Retry: retry}, eng, server)
			refEng, refHost, refServer := scriptedWorld(t, seed)
			want := run(&refClient{Host: refHost, Retry: retry}, refEng, refServer)
			if !slices.Equal(got, want) {
				for j := range min(len(got), len(want)) {
					if got[j] != want[j] {
						t.Fatalf("seed %d profile %d: line %d\n got %s\nwant %s", seed, pi, j, got[j], want[j])
					}
				}
				t.Fatalf("seed %d profile %d: %d lines, reference %d", seed, pi, len(got), len(want))
			}
		}
	}
}
