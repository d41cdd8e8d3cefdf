package dns

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// A query decodes its reply into storage of its own and hands done a
// message in it. These tests hold that storage to its contract: a reply
// rejected for its ID leaves nothing behind, and a message done got is
// the caller's to keep.

// answering replaces srv's handler on port 53 with one that answers each
// query with the datagrams replies renders for its ID, in order.
func answering(t *testing.T, srv *Server, replies func(id uint16) []*Message) {
	t.Helper()
	srv.Host.UnbindUDP(53)
	h := srv.Host
	if err := h.BindUDP(53, func(src netstack.IP, port uint16, q []byte) {
		for _, m := range replies(binary.BigEndian.Uint16(q)) {
			wire, err := m.Encode()
			if err != nil {
				t.Fatal(err)
			}
			h.SendUDP(src, 53, port, wire)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleReplyLeavesNothing: a reply with another query's ID fills
// every part of a message — two questions, all three sections, every
// flag — and is rejected; the right reply that follows must reach done
// exactly as a fresh Decode reads it, with or without a question
// section or records of its own.
func TestStaleReplyLeavesNothing(t *testing.T) {
	alice := Question{Name: "alice.family.name", Type: TypeA, Class: ClassIN}
	a := RR{Name: "alice.family.name", Type: TypeA, Class: ClassIN, TTL: 60, A: netstack.IPv4(10, 0, 0, 20)}
	stale := func(id uint16) *Message {
		return &Message{ID: id + 1, Response: true, Opcode: 2, Authoritative: true, RecursionDesired: true,
			RecursionAvailable: true, RCode: RCodeNXDomain,
			Questions:  []Question{alice, {Name: "bob.family.name", Type: TypeTXT, Class: ClassIN}},
			Answers:    []RR{{Name: "bob.family.name", Type: TypeTXT, Class: ClassIN, TTL: 9, TXT: "stale"}},
			Authority:  []RR{{Name: "family.name", Type: TypeNS, Class: ClassIN, TTL: 9, Target: "ns.family.name"}},
			Additional: []RR{{Name: "ns.family.name", Type: TypeA, Class: ClassIN, TTL: 9, A: netstack.IPv4(10, 0, 0, 1)}}}
	}
	for _, tc := range []struct {
		name  string
		right func(id uint16) *Message
	}{
		{"question and answer", func(id uint16) *Message {
			return &Message{ID: id, Response: true, Questions: []Question{alice}, Answers: []RR{a}}
		}},
		{"answer, no question", func(id uint16) *Message {
			return &Message{ID: id, Response: true, Answers: []RR{a}}
		}},
		{"bare header", func(id uint16) *Message {
			return &Message{ID: id, Response: true, RCode: RCodeServFail}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, client, srv := dnsPair(t)
			var want []byte
			answering(t, srv, func(id uint16) []*Message {
				right := tc.right(id)
				var err error
				if want, err = right.Encode(); err != nil {
					t.Fatal(err)
				}
				return []*Message{stale(id), right}
			})
			c := &Client{Host: client}
			var got *Message
			c.Query(srv.Host.IP, "alice.family.name", TypeA, time.Second, func(m *Message, _ sim.Duration, err error) {
				if err != nil {
					t.Fatal(err)
				}
				got = m
			})
			eng.Run()
			fresh, err := Decode(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, fresh) {
				t.Fatalf("done got %+v, want %+v", got, fresh)
			}
		})
	}
}

// cloneMessage copies m down to its section arrays (strings are
// immutable, so sharing them is copying them).
func cloneMessage(m *Message) *Message {
	c := *m
	c.Questions = slices.Clone(m.Questions)
	c.Answers, c.Authority, c.Additional = slices.Clone(m.Answers), slices.Clone(m.Authority), slices.Clone(m.Additional)
	return &c
}

// TestKeptMessageOutlivesLaterQueries: the message done gets is its
// query's own storage, written by nothing once done has it, so a caller
// that keeps it reads the same message after 100 more queries from the
// same host and client, each answered with a record of its own.
func TestKeptMessageOutlivesLaterQueries(t *testing.T) {
	eng, client, srv := dnsPair(t)
	for i := range 100 {
		srv.Zone.Add(RR{Name: fmt.Sprintf("s%d.family.name", i), Type: TypeA, TTL: 60, A: netstack.IPv4(10, 1, 0, byte(i))})
	}
	c := &Client{Host: client, Retry: DefaultRetry()}
	var kept []*Message
	query := func(name string) {
		c.Query(srv.Host.IP, name, TypeA, time.Second, func(m *Message, _ sim.Duration, err error) {
			if err != nil || len(m.Answers) != 1 {
				t.Fatalf("%s: %+v, %v", name, m, err)
			}
			kept = append(kept, m)
		})
		eng.Run()
	}
	query("alice.family.name")
	want := cloneMessage(kept[0])
	for i := range 100 {
		query(fmt.Sprintf("s%d.family.name", i))
	}
	if !reflect.DeepEqual(kept[0], want) {
		t.Fatalf("the kept message changed after 100 later queries: %+v, want %+v", kept[0], want)
	}
	if kept[0] == kept[1] {
		t.Fatal("two queries handed done one message")
	}
}
