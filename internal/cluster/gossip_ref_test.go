package cluster

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
)

// refDrain, refEncodeGossip and refSendTail are the gossip send path as
// it was before the agent kept its buffers: a fresh update list and a
// fresh datagram per message.
func refDrain(a *agent, extra []gossipUpdate) []gossipUpdate {
	ups := make([]gossipUpdate, 0, maxPiggyback+len(extra))
	keep := a.out[:0]
	for _, ou := range a.out {
		if len(ups) < maxPiggyback {
			ups = append(ups, ou.u)
			ou.budget--
		}
		if ou.budget > 0 {
			keep = append(keep, ou)
		}
	}
	a.out = keep
	return append(ups, extra...)
}

func refEncodeGossip(self int, typ byte, seq uint32, ups []gossipUpdate, tail []byte) []byte {
	buf := make([]byte, 0, 8+7*len(ups)+len(tail))
	buf = append(buf, typ, byte(self>>8), byte(self),
		byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq), byte(len(ups)))
	for _, u := range ups {
		buf = append(buf, byte(u.ID>>8), byte(u.ID), byte(u.State),
			byte(u.Inc>>24), byte(u.Inc>>16), byte(u.Inc>>8), byte(u.Inc))
	}
	return append(buf, tail...)
}

func refSendTail(a *agent, id int, typ byte, seq uint32, extra []gossipUpdate, tail []byte) {
	a.host.SendUDP(mgmtIP(id), gossipPort, gossipPort, refEncodeGossip(a.self, typ, seq, refDrain(a, extra), tail))
}

// gossipDatagram is one management datagram taken apart again.
type gossipDatagram struct {
	typ  byte
	from int
	seq  uint32
	ups  []gossipUpdate
	tail []byte
}

func parseGossip(t *testing.T, payload []byte) gossipDatagram {
	t.Helper()
	if len(payload) < 8 || len(payload) < 8+7*int(payload[7]) {
		t.Fatalf("short gossip datagram %x", payload)
	}
	d := gossipDatagram{typ: payload[0], from: int(payload[1])<<8 | int(payload[2]), seq: getU32(payload[3:7])}
	for off := 8; off < 8+7*int(payload[7]); off += 7 {
		d.ups = append(d.ups, gossipUpdate{
			ID: int(payload[off])<<8 | int(payload[off+1]), State: MemberState(payload[off+2]), Inc: getU32(payload[off+3:]),
		})
	}
	d.tail = payload[8+7*int(payload[7]):]
	return d
}

// TestGossipDatagramsMatchReference holds the gossip send path to
// refSendTail twice over. A churn run — a deaf board suspected through a
// ping-req round, its refutation, a graceful leave — has every datagram
// any agent receives captured and compared with the reference's bytes
// for the same message. Then two identical clusters are fed one seeded
// stream of rumors and sends, one through sendTail and one through
// refSendTail: the frames on their links and the outboxes left behind
// must stay equal, whatever the reused buffers last held.
func TestGossipDatagramsMatchReference(t *testing.T) {
	c := NewCluster(WithBoards(5), WithSeed(7), WithIndirectProbes(2),
		WithProbing(200*time.Millisecond, 50*time.Millisecond, 5*time.Second))
	seen := map[byte]int{}
	states := map[MemberState]int{}
	listen := func(m *Member) {
		a := m.agent
		a.host.UnbindUDP(gossipPort)
		if err := a.host.BindUDP(gossipPort, func(src netstack.IP, sport uint16, payload []byte) {
			d := parseGossip(t, payload)
			if want := refEncodeGossip(d.from, d.typ, d.seq, d.ups, d.tail); !bytes.Equal(payload, want) {
				t.Errorf("datagram %x, reference %x", payload, want)
			}
			if len(d.ups) > maxPiggyback+len(c.members) || (d.typ == msgPingReq) != (len(d.tail) == 2) {
				t.Errorf("type %d datagram carries %d updates and a %d-byte tail", d.typ, len(d.ups), len(d.tail))
			}
			seen[d.typ]++
			for _, u := range d.ups {
				states[u.State]++
			}
			a.recv(src, sport, payload)
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range c.members {
		listen(m)
	}
	c.RunUntil(time.Second)
	// Board 1's uplink loses half of everything for three seconds: probes
	// through it time out, relays get through, suspicions rise and are
	// refuted.
	c.MgmtLink(1).Impair(netsim.Impairment{Loss: 0.5}, 77)
	c.RunUntil(4 * time.Second)
	c.MgmtLink(1).Heal()
	c.RunUntil(5 * time.Second)
	listen(c.AddBoard())
	c.RunUntil(6 * time.Second)
	if err := c.Leave(3, nil); err != nil {
		t.Fatal(err)
	}
	c.RunUntil(12 * time.Second)
	c.StopMembership()
	c.RunAll()
	for _, typ := range []byte{msgPing, msgAck, msgJoin, msgJoinReply, msgGossip, msgPingReq, msgPingReqAck} {
		if seen[typ] == 0 {
			t.Errorf("the churn run never sent a type-%d datagram (%v)", typ, seen)
		}
	}
	if states[MemberSuspect] == 0 || states[MemberLeft] == 0 || c.Suspects == 0 || c.Refutes == 0 || c.IndirectAcks == 0 || seen[msgGossip] < 3 {
		t.Errorf("the churn run missed its events: datagrams by type %v, updates by state %v, suspects %d refutes %d indirect acks %d",
			seen, states, c.Suspects, c.Refutes, c.IndirectAcks)
	}
	checkClusterQuiescent(t, "after the churn run", c)

	// Twin clusters, one stream.
	type twin struct {
		c   *Cluster
		cap *netsim.Capture
	}
	var twins [2]twin
	for i := range twins {
		tc := testCluster(3)
		twins[i] = twin{c: tc, cap: netsim.NewCapture(tc.eng, 0)}
		tc.MgmtLink(1).Tap(twins[i].cap)
		tc.MgmtLink(2).Tap(twins[i].cap)
	}
	rng := rand.New(rand.NewSource(24))
	update := func() gossipUpdate {
		// Members nobody has: the receivers file the rumors and gossip
		// them on, the directory ignores them.
		return gossipUpdate{ID: 10 + rng.Intn(6), State: MemberState(1 + rng.Intn(4)), Inc: uint32(rng.Intn(5))}
	}
	for step := 0; step < 400; step++ {
		var rumors, extra []gossipUpdate
		for n := rng.Intn(14); n > 0; n-- { // past maxPiggyback now and then
			rumors = append(rumors, update())
		}
		for n := rng.Intn(3); n > 0; n-- {
			extra = append(extra, update())
		}
		to, typ, seq := 1+rng.Intn(2), []byte{msgGossip, msgPingReqAck}[rng.Intn(2)], rng.Uint32()
		var tail []byte
		if rng.Intn(3) == 0 {
			tail = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		}
		for i, tw := range twins {
			a := tw.c.members[0].agent
			for _, u := range rumors {
				a.enqueue(u)
			}
			if i == 0 {
				a.sendTail(to, typ, seq, extra, tail)
			} else {
				refSendTail(a, to, typ, seq, extra, tail)
			}
			if step%5 == 0 {
				tw.c.eng.RunFor(time.Millisecond)
			}
		}
		if got, want := twins[0].c.members[0].agent.out, twins[1].c.members[0].agent.out; !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("step %d: outbox %v, reference %v", step, got, want)
		}
	}
	for _, tw := range twins {
		tw.c.RunAll()
	}
	got, want := twins[0].cap.Records, twins[1].cap.Records
	if len(got) != len(want) || len(got) < 400 {
		t.Fatalf("%d frames captured, reference %d, want at least the 400 sent", len(got), len(want))
	}
	for i := range got {
		if got[i].At != want[i].At || got[i].Dir != want[i].Dir || !bytes.Equal(got[i].Frame, want[i].Frame) {
			t.Fatalf("frame %d at %v %s: %x\nreference at %v %s: %x", i, got[i].At, got[i].Dir, got[i].Frame, want[i].At, want[i].Dir, want[i].Frame)
		}
	}
}
