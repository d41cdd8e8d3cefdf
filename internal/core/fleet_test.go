package core

import (
	"errors"
	"testing"
	"time"

	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
)

func fleetService() ServiceConfig {
	return ServiceConfig{
		Name:  "alice.family.name",
		IP:    netstack.IPv4(10, 0, 0, 20),
		Port:  80,
		Image: unikernel.UnikernelImage("alice", unikernel.NewStaticSiteApp("alice")),
	}
}

func TestFleetServesFromFirstBoard(t *testing.T) {
	f := NewFleet(2)
	f.RegisterEverywhere(fleetService())
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	var servedBy int
	var status int
	fc.Fetch("alice.family.name", "/", 10*time.Second,
		func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			servedBy, status = board, resp.Status
		})
	f.RunAll()
	if servedBy != 0 || status != 200 {
		t.Fatalf("served by board %d status %d", servedBy, status)
	}
	if fc.ServFails != 0 {
		t.Fatalf("servfails = %d", fc.ServFails)
	}
}

func TestFleetFailsOverOnServFail(t *testing.T) {
	// Board 0 has no memory for guests: it must answer SERVFAIL and the
	// client must transparently land on board 1.
	f := NewFleet(2)
	f.Boards[0].Hyp.TotalMemMiB = 8
	svcs := f.RegisterEverywhere(fleetService())
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))

	var servedBy int
	var status int
	fc.Fetch("alice.family.name", "/", 10*time.Second,
		func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			servedBy, status = board, resp.Status
		})
	f.RunAll()
	if servedBy != 1 || status != 200 {
		t.Fatalf("served by board %d status %d, want board 1 / 200", servedBy, status)
	}
	if fc.ServFails != 1 {
		t.Fatalf("servfails = %d, want 1", fc.ServFails)
	}
	if svcs[0].ServFails != 1 || svcs[0].Launches != 0 {
		t.Fatalf("board0 service: servfails=%d launches=%d", svcs[0].ServFails, svcs[0].Launches)
	}
	if svcs[1].Launches != 1 {
		t.Fatalf("board1 service launches = %d", svcs[1].Launches)
	}
}

func TestFleetAllBoardsFull(t *testing.T) {
	f := NewFleet(3, WithMemory(8))
	f.RegisterEverywhere(fleetService())
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	var gotErr error
	fc.Fetch("alice.family.name", "/", 10*time.Second,
		func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
			gotErr = err
		})
	f.RunAll()
	if !errors.Is(gotErr, ErrAllServFail) {
		t.Fatalf("err = %v, want ErrAllServFail", gotErr)
	}
	if fc.ServFails != 3 {
		t.Fatalf("servfails = %d", fc.ServFails)
	}
}

func TestFleetSharedVirtualTime(t *testing.T) {
	f := NewFleet(2)
	if f.Boards[0].Eng != f.Boards[1].Eng {
		t.Fatal("fleet boards must share one engine")
	}
	if f.Eng() != f.Boards[0].Eng {
		t.Fatal("Eng() mismatch")
	}
}

func TestFleetFailoverLatencyIsOneExtraRTT(t *testing.T) {
	// Failing over costs one extra DNS round trip, not a timeout.
	f := NewFleet(2)
	f.Boards[0].Hyp.TotalMemMiB = 8
	f.RegisterEverywhere(fleetService())
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	var elapsed sim.Duration
	fc.Fetch("alice.family.name", "/", 10*time.Second,
		func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			elapsed = d
		})
	f.RunAll()
	// Still a normal cold start plus ~1ms of extra resolution.
	if elapsed > 600*time.Millisecond {
		t.Fatalf("failover fetch took %v", elapsed)
	}
}
