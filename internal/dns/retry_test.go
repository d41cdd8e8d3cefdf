package dns

import (
	"hash/fnv"
	"testing"
	"time"

	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// deterministicRetry is DefaultRetry with the jitter stripped, so test
// assertions can reason about exact retransmit instants.
func deterministicRetry() sim.Backoff {
	p := DefaultRetry()
	p.Jitter = 0
	return p
}

func TestClientRetryRecoversFromOutage(t *testing.T) {
	// The client's uplink is mute (TX cut) for the first 300ms: the
	// original datagram and nothing else is lost. With retries the
	// 200ms+400ms retransmits straddle the heal — the second one gets
	// through and the query succeeds well under the deadline.
	eng, client, srv := dnsPair(t)
	// Pre-resolved ARP so the exact retransmit schedule is observable
	// (ARP has its own retry layer, exercised in netstack's tests).
	client.SeedARP(srv.Host.IP, srv.Host.NIC.Addr)
	link := client.NIC.Link()
	link.PartitionAtoB()
	eng.At(300*time.Millisecond, func() { link.Heal() })

	c := &Client{Host: client, Retry: deterministicRetry()}
	var resp *Message
	var rtt sim.Duration
	c.Query(srv.Host.IP, "alice.family.name", TypeA, 5*time.Second,
		func(m *Message, d sim.Duration, err error) {
			if err != nil {
				t.Fatalf("query failed despite retries: %v", err)
			}
			resp, rtt = m, d
		})
	eng.Run()
	if resp == nil || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	// First copy at 0 (dropped), retransmit at 200ms (dropped), second
	// retransmit at 600ms (delivered).
	if rtt < 600*time.Millisecond || rtt > 700*time.Millisecond {
		t.Fatalf("rtt = %v, want ~600ms (second retransmit)", rtt)
	}
	if c.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", c.Retries)
	}
	if link.Stats.Dropped != 2 {
		t.Fatalf("link dropped %d, want 2", link.Stats.Dropped)
	}
}

func TestClientNoRetryAblation(t *testing.T) {
	// Zero-value policy: the pre-hardening behaviour. The same 300ms
	// outage now burns the entire client timeout.
	eng, client, srv := dnsPair(t)
	client.SeedARP(srv.Host.IP, srv.Host.NIC.Addr)
	link := client.NIC.Link()
	link.PartitionAtoB()
	eng.At(300*time.Millisecond, func() { link.Heal() })

	c := &Client{Host: client}
	var gotErr error
	start := eng.Now()
	c.Query(srv.Host.IP, "alice.family.name", TypeA, 2*time.Second,
		func(m *Message, d sim.Duration, err error) { gotErr = err })
	eng.Run()
	if gotErr != netstack.ErrTimeout {
		t.Fatalf("err = %v, want timeout", gotErr)
	}
	if eng.Now()-start < 2*time.Second {
		t.Fatal("timed out early")
	}
	if c.Retries != 0 {
		t.Fatalf("Retries = %d on a no-retry client", c.Retries)
	}
}

func TestClientRetryGivesUpAtDeadline(t *testing.T) {
	// Permanent partition: retries are bounded and the overall timeout
	// still delivers exactly one completion.
	eng, client, srv := dnsPair(t)
	client.SeedARP(srv.Host.IP, srv.Host.NIC.Addr)
	client.NIC.Link().Partition()

	c := &Client{Host: client, Retry: deterministicRetry()}
	calls := 0
	var gotErr error
	c.Query(srv.Host.IP, "alice.family.name", TypeA, 3*time.Second,
		func(m *Message, d sim.Duration, err error) { calls++; gotErr = err })
	eng.Run()
	if calls != 1 || gotErr != netstack.ErrTimeout {
		t.Fatalf("calls=%d err=%v", calls, gotErr)
	}
	if want := uint64(deterministicRetry().Retries); c.Retries != want {
		t.Fatalf("Retries = %d, want %d", c.Retries, want)
	}
}

func TestClientRetryQuietOnCleanLink(t *testing.T) {
	// A healthy link must see exactly one datagram per query — the
	// retransmit timer is cancelled by the response, and the engine
	// drains without waiting out abandoned timers.
	eng, client, srv := dnsPair(t)
	c := &Client{Host: client, Retry: DefaultRetry()}
	ok := false
	c.Query(srv.Host.IP, "alice.family.name", TypeA, 5*time.Second,
		func(m *Message, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			ok = true
		})
	eng.Run()
	if !ok || c.Retries != 0 {
		t.Fatalf("ok=%v retries=%d", ok, c.Retries)
	}
	if srv.Queries != 1 {
		t.Fatalf("server saw %d queries, want 1", srv.Queries)
	}
	_ = eng
}

func TestClientRetryIgnoresDuplicateAnswers(t *testing.T) {
	// A duplicating link delivers the answer twice; the query must
	// complete exactly once and the late copy be dropped harmlessly.
	eng, client, srv := dnsPair(t)
	client.NIC.Link().ImpairBtoA(netsim.Impairment{DupProb: 1.0}, 4)

	c := &Client{Host: client, Retry: DefaultRetry()}
	calls := 0
	c.Query(srv.Host.IP, "alice.family.name", TypeA, 5*time.Second,
		func(m *Message, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			calls++
		})
	eng.Run()
	if calls != 1 {
		t.Fatalf("done called %d times", calls)
	}
}

// FuzzImpairedCodec round-trips DNS questions through a lossy,
// duplicating, jittery link with the hardened client: whatever name the
// fuzzer proposes, the exchange must complete exactly once (answer or
// timeout), never panic, and any answer must carry the query's ID.
func FuzzImpairedCodec(f *testing.F) {
	q := &Message{ID: 1, RecursionDesired: true,
		Questions: []Question{{Name: "alice.family.name", Type: TypeA, Class: ClassIN}}}
	if wire, err := q.Encode(); err == nil {
		f.Add(wire)
	}
	q.Questions[0].Name = "no.such.zone.example"
	if wire, err := q.Encode(); err == nil {
		f.Add(wire)
	}
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 14, 0, 1, 0, 1, 63, 'a'})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil || len(m.Questions) == 0 {
			return
		}
		h := fnv.New64a()
		h.Write(data)
		seed := int64(h.Sum64() & 0x7fffffffffffffff)

		eng := sim.New(seed)
		br := netsim.NewBridge(eng, "br", 10*time.Microsecond)
		nicC := netsim.NewNIC(eng, "client", netsim.MACFor(1))
		nicS := netsim.NewNIC(eng, "ns", netsim.MACFor(2))
		br.ConnectNIC(nicC, 150*time.Microsecond, 0)
		br.ConnectNIC(nicS, 20*time.Microsecond, 0)
		client := netstack.NewHost(eng, "client", nicC, netstack.IPv4(10, 0, 0, 9), netstack.LinuxNativeProfile())
		nsHost := netstack.NewHost(eng, "ns", nicS, netstack.IPv4(10, 0, 0, 1), netstack.MirageProfile())
		zone := NewZone("family.name")
		zone.Add(RR{Name: "alice.family.name", Type: TypeA, TTL: 60, A: netstack.IPv4(10, 0, 0, 20)})
		if _, err := Serve(nsHost, zone); err != nil {
			t.Fatal(err)
		}
		client.NIC.Link().Impair(netsim.Impairment{
			Loss: 0.25, DupProb: 0.25, Jitter: 2 * time.Millisecond,
		}, seed)

		c := &Client{Host: client, Retry: DefaultRetry()}
		calls := 0
		c.Query(nsHost.IP, m.Questions[0].Name, m.Questions[0].Type, 3*time.Second,
			func(resp *Message, d sim.Duration, err error) {
				calls++
				if err == nil {
					if _, e2 := resp.AppendEncode(nil); e2 != nil {
						t.Fatalf("answer does not re-encode: %v", e2)
					}
				}
			})
		eng.Run()
		if calls != 1 {
			t.Fatalf("query completed %d times over impaired link", calls)
		}
	})
}
