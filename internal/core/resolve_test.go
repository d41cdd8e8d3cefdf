package core

import (
	"errors"
	"testing"
	"time"

	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// resolveRig connects a guest-side endpoint to the well-known jitsud
// Conduit node and returns a helper that sends one line and collects
// the reply.
func resolveRig(t *testing.T, b *Board) func(line string) string {
	t.Helper()
	ep, err := b.Registry.Connect(42, "jitsud")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	ep.OnData(func(data []byte) { reply += string(data) })
	return func(line string) string {
		reply = ""
		ep.Write([]byte(line))
		b.Eng.Run()
		return reply
	}
}

func TestHandleResolveOK(t *testing.T) {
	b := New()
	svc := b.Jitsu.Register(aliceService())
	resolve := resolveRig(t, b)
	if got := resolve("resolve alice.family.name\n"); got != "ok 10.0.0.20\n" {
		t.Fatalf("reply = %q", got)
	}
	if svc.Launches != 1 || svc.ColdStarts != 1 {
		t.Fatalf("launches=%d coldstarts=%d, want 1/1", svc.Launches, svc.ColdStarts)
	}
	// A second resolve finds the service running: no new launch.
	if got := resolve("resolve alice.family.name\n"); got != "ok 10.0.0.20\n" {
		t.Fatalf("warm reply = %q", got)
	}
	if svc.Launches != 1 {
		t.Fatalf("warm resolve relaunched: %d", svc.Launches)
	}
}

func TestHandleResolveNXDomain(t *testing.T) {
	b := New()
	resolve := resolveRig(t, b)
	if got := resolve("resolve ghost.family.name\n"); got != "nxdomain\n" {
		t.Fatalf("reply = %q", got)
	}
}

func TestHandleResolveBadRequest(t *testing.T) {
	b := New()
	resolve := resolveRig(t, b)
	for _, line := range []string{"summon alice.family.name\n", "resolvealice\n", "\n"} {
		if got := resolve(line); got != "badrequest\n" {
			t.Fatalf("reply to %q = %q, want badrequest", line, got)
		}
	}
}

func TestHandleResolveServFail(t *testing.T) {
	b := New(WithMemory(8)) // smaller than any image
	svc := b.Jitsu.Register(aliceService())
	resolve := resolveRig(t, b)
	if got := resolve("resolve alice.family.name\n"); got != "servfail\n" {
		t.Fatalf("reply = %q", got)
	}
	if svc.ServFails != 1 || svc.Launches != 0 {
		t.Fatalf("servfails=%d launches=%d, want 1/0", svc.ServFails, svc.Launches)
	}
}

func TestHandleResolvePipelinedLines(t *testing.T) {
	// Several commands in one write must each get an answer, in order —
	// the line framing over the byte stream is part of the protocol.
	b := New()
	b.Jitsu.Register(aliceService())
	resolve := resolveRig(t, b)
	got := resolve("resolve alice.family.name\nresolve ghost.family.name\nbogus\n")
	want := "ok 10.0.0.20\nnxdomain\nbadrequest\n"
	if got != want {
		t.Fatalf("pipelined reply = %q, want %q", got, want)
	}
}

func TestFleetClientAllBoardsRefuse(t *testing.T) {
	// Every board too small for the image: the client walks the whole NS
	// set, collects a SERVFAIL per board, and surfaces ErrAllServFail.
	f := NewFleet(4, WithMemory(8))
	svcs := f.RegisterEverywhere(fleetService())
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	var gotErr error
	var gotBoard int
	fc.Fetch("alice.family.name", "/", 10*time.Second,
		func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
			gotBoard, gotErr = board, err
		})
	f.RunAll()
	if !errors.Is(gotErr, ErrAllServFail) {
		t.Fatalf("err = %v, want ErrAllServFail", gotErr)
	}
	if gotBoard != -1 {
		t.Fatalf("board = %d, want -1", gotBoard)
	}
	if fc.ServFails != 4 {
		t.Fatalf("client servfails = %d, want 4", fc.ServFails)
	}
	for i, svc := range svcs {
		if svc.ServFails != 1 {
			t.Fatalf("board %d servfails = %d, want 1", i, svc.ServFails)
		}
	}
}
