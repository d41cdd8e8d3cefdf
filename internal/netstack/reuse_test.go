package netstack

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"
	"time"

	"jitsu/internal/netsim"
	"jitsu/internal/sim"
)

// A host reuses what its fetches and connections leave behind: a
// finished connection's send buffer goes to the next one, a server
// renders the response its handler returns and keeps nothing, and a
// fetch holds the response it hands its caller. These tests hold each
// piece of storage to the one owner the contracts name.

// bodyFor is the body the servers below send for fetch i: a size and a
// content of its own, several segments long for most i.
func bodyFor(i int) []byte {
	b := make([]byte, 300+i*977%6000)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

// serveBodies answers GET /<i> with bodyFor(i), returning the same
// *HTTPResponse every time, as the HTTPHandler contract allows.
func serveBodies(t *testing.T, h *Host) {
	t.Helper()
	var resp HTTPResponse
	if _, err := h.ServeHTTP(80, func(req *HTTPRequest) *HTTPResponse {
		i, err := strconv.Atoi(req.Path[1:])
		if err != nil {
			return nil
		}
		resp = HTTPResponse{Status: 200, Body: bodyFor(i)}
		return &resp
	}); err != nil {
		t.Fatal(err)
	}
}

// TestKeptResponseOutlivesLaterFetches: the response a fetch hands its
// caller is the fetch's own and a view of frames nobody writes, so a
// caller that keeps it reads the same bytes after 100 more fetches from
// the same host — fetches whose send buffers are the first one's, given
// back and rendered into again.
func TestKeptResponseOutlivesLaterFetches(t *testing.T) {
	eng, a, b, _ := twoHosts(1)
	serveBodies(t, b)
	var kept []*HTTPResponse
	fetch := func(i int) {
		a.HTTPGet(b.IP, 80, "/"+strconv.Itoa(i), time.Second, func(r *HTTPResponse, _ sim.Duration, err error) {
			if err != nil || !bytes.Equal(r.Body, bodyFor(i)) {
				t.Fatalf("fetch %d: %v", i, err)
			}
			kept = append(kept, r)
		})
		eng.Run()
	}
	fetch(0)
	fetch(1)
	want := []HTTPResponse{*kept[0], *kept[1]}
	want[0].Body, want[1].Body = bytes.Clone(kept[0].Body), bytes.Clone(kept[1].Body)
	for i := 2; i < 102; i++ {
		fetch(i)
	}
	if kept[0] == kept[1] {
		t.Fatal("two fetches handed their callers one response")
	}
	for i, w := range want {
		if !reflect.DeepEqual(*kept[i], w) {
			t.Errorf("response %d changed after 100 later fetches: status %d, header %q, %d-byte body", i, kept[i].Status, kept[i].Header, len(kept[i].Body))
		}
	}
}

// TestLossyFetchesGetTheirBodies runs three closed-loop chains of fetches
// from one host across a lossy, duplicating, reordering link, so the
// server holds connections that retransmit from their send buffers while
// newer ones render into spares. Every fetch must get exactly its body,
// and whenever one finishes, no connection in TIME_WAIT on either host
// may hold a send buffer or anything but a zero-size application.
func TestLossyFetchesGetTheirBodies(t *testing.T) {
	eng, a, b, _ := twoHosts(5)
	serveBodies(t, b)
	a.NIC.Link().Impair(netsim.Impairment{Loss: 0.1, DupProb: 0.05, ReorderProb: 0.05}, 11)
	const chains, perChain = 3, 20
	got, timeWaits := 0, 0
	var fetch func(i int)
	fetch = func(i int) {
		a.HTTPGet(b.IP, 80, "/"+strconv.Itoa(i), time.Minute, func(r *HTTPResponse, _ sim.Duration, err error) {
			if err != nil {
				t.Fatalf("fetch %d: %v", i, err)
			}
			if !bytes.Equal(r.Body, bodyFor(i)) {
				t.Fatalf("fetch %d got a %d-byte body that is not its own", i, len(r.Body))
			}
			got++
			for _, h := range []*Host{a, b} {
				for _, c := range h.conns {
					if c.state != StateTimeWait {
						continue
					}
					timeWaits++
					if c.sndBuf != nil {
						t.Fatalf("%s: a connection in TIME_WAIT holds a %d-byte send buffer", h.Name, cap(c.sndBuf))
					}
					if reflect.TypeOf(c.app).Size() != 0 {
						t.Fatalf("%s: a connection in TIME_WAIT holds a %T, not a zero-size application", h.Name, c.app)
					}
				}
			}
			if next := i + chains; next < chains*perChain {
				fetch(next)
			}
		})
	}
	for i := range chains {
		fetch(i)
	}
	eng.Run()
	if got != chains*perChain {
		t.Fatalf("%d of %d fetches finished", got, chains*perChain)
	}
	if timeWaits == 0 || a.NIC.Link().Stats.Dropped == 0 {
		t.Fatalf("the test saw %d TIME_WAIT connections and %d lost frames: it checked nothing", timeWaits, a.NIC.Link().Stats.Dropped)
	}
	if n := len(a.conns) + len(b.conns); n != 0 {
		t.Fatalf("%d connections left", n)
	}
}
