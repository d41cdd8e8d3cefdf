package cluster

import (
	"errors"
	"testing"
	"time"

	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
)

// ---- federation delegation under hostile management networks ----

// rootMgmtLink is the root directory's uplink to the federation
// management bridge (the root NIC sits at the link's A end, so AtoB is
// the root's transmit direction — resolves and spill commands — and
// BtoA its receive direction — replies and summaries).
func rootMgmtLink(f *Federation) *netsim.Link {
	return f.root.mgmt.NIC.Link()
}

func TestFedDelegationRetransmitRecoversLoss(t *testing.T) {
	// A lossy root uplink drops delegation datagrams and replies in both
	// directions. Every query must still answer: the root's per-query
	// retransmit recovers each lost exchange.
	f := testFederation(2, 2)
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	f.RegisterService(testService("alice", 20))

	// Impair only after the registration's summary push has landed, so
	// the loss hits the delegation exchanges, not the bloom bootstrap.
	f.Eng().At(100*time.Millisecond, func() {
		rootMgmtLink(f).Impair(netsim.Impairment{Loss: 0.25}, 7)
	})
	outs := make([]*fedOutcome, 8)
	for i := range outs {
		outs[i] = fedFetch(f, fc, time.Duration(i+1)*time.Second, "alice.family.name")
	}
	f.RunAll()

	for i, out := range outs {
		if !out.done || out.err != nil {
			t.Fatalf("fetch %d over lossy uplink: done=%v err=%v", i, out.done, out.err)
		}
	}
	r := f.Root()
	if r.DelegRetx == 0 {
		t.Fatal("25% loss on the root uplink produced no delegation retransmits")
	}
	if r.DelegTimeouts != 0 {
		t.Fatalf("deleg timeouts = %d with a healthy retry budget, want 0", r.DelegTimeouts)
	}
}

// TestFedTransferRecoversChunkLoss is the federation-side twin of the
// migration loss tests: a skew shed's checkpoint copy crosses a lossy
// agent uplink, lost chunks (and lost acks) retransmit within budget,
// the transfer completes, and every byte of window the copy was granted
// is back with the sending agent's controller.
func TestFedTransferRecoversChunkLoss(t *testing.T) {
	f := testFederation(2, 2)
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	svc := testService("alice", 20)
	svc.StateMiB = 18
	_, e := f.RegisterService(svc)
	warm := fedFetch(f, fc, 1*time.Second, "alice.family.name")
	src := f.members[0].agent
	f.Eng().At(10*time.Second, func() {
		ready := refReady(e)
		if len(ready) == 0 {
			t.Error("no ready replica to transfer")
			return
		}
		src.nic.Link().Impair(netsim.Impairment{Loss: 0.3}, 5)
		src.transferOut(e, ready[0], f.members[1])
	})
	f.RunAll()
	if !warm.done || warm.err != nil {
		t.Fatalf("warm fetch: done=%v err=%v", warm.done, warm.err)
	}
	if f.FedChunkRetx == 0 {
		t.Fatal("30% loss on the agent uplink produced no chunk retransmits — scenario not exercised")
	}
	if f.CrossMigrations != 1 || f.FedXferAborts != 0 {
		t.Fatalf("cross-migrations=%d aborts=%d, want 1/0: retransmission did not recover the copy",
			f.CrossMigrations, f.FedXferAborts)
	}
	if src.ctrl.InFlight() != 0 || src.ctrl.QueueLen() != 0 || len(src.xfers) != 0 {
		t.Fatalf("agent controller after the transfer: inflight=%d queued=%d live=%d, want 0/0/0",
			src.ctrl.InFlight(), src.ctrl.QueueLen(), len(src.xfers))
	}
}

func TestFedDelegationTimeoutServfailNoNegativeCache(t *testing.T) {
	// An outbound partition starves a delegation: the root must answer
	// SERVFAIL after its retry budget — and must NOT cache a negative,
	// because an unreachable cluster says nothing about the name. After
	// the heal the same name resolves.
	f := testFederation(2, 2)
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	f.RegisterService(testService("alice", 20))
	link := rootMgmtLink(f)

	f.Eng().At(1*time.Second, func() { link.PartitionAtoB() })
	during := fedFetch(f, fc, 1100*time.Millisecond, "alice.family.name")
	// The budget is the timeout doubling per try — 5 + 10 + 20 + 40 ms from
	// the delegation, a millisecond after the fetch: not yet spent at
	// 70 ms, spent at 80.
	for at, want := range map[time.Duration]uint64{1170 * time.Millisecond: 0, 1180 * time.Millisecond: 1} {
		f.Eng().At(at, func() {
			if got := f.root.DelegTimeouts; got != want {
				t.Errorf("at %v: %d delegations written off, want %d", at, got, want)
			}
		})
	}
	f.Eng().At(2*time.Second, func() { link.Heal() })
	after := fedFetch(f, fc, 3*time.Second, "alice.family.name")
	f.RunAll()

	if !during.done || !errors.Is(during.err, ErrFederationFull) {
		t.Fatalf("partitioned fetch: done=%v err=%v, want SERVFAIL", during.done, during.err)
	}
	r := f.Root()
	if r.DelegTimeouts != 1 {
		t.Fatalf("deleg timeouts = %d, want 1", r.DelegTimeouts)
	}
	if want := uint64(f.Cfg.delegate.Retries); r.DelegRetx != want {
		t.Fatalf("deleg retx = %d, want the full budget %d", r.DelegRetx, want)
	}
	if len(f.root.neg) != 0 {
		t.Fatalf("timeout poisoned the negative cache: %v", f.root.neg)
	}
	if !after.done || after.err != nil {
		t.Fatalf("post-heal fetch: done=%v err=%v — a cached negative survived the partition",
			after.done, after.err)
	}
	checkQuiescent(t, f, 1)
}

func TestFedDelegationRetryAblation(t *testing.T) {
	// The same brief outage, with and without the retransmit. The
	// hardened root rides it out; the no-retry ablation turns one lost
	// datagram into a client-visible SERVFAIL.
	run := func(retries int) (*fedOutcome, *FedRootStats) {
		f := NewFederation(
			WithClusters(2),
			WithMemberOptions(WithBoards(2), WithSeed(42)),
			WithDelegateRetry(5*time.Millisecond, retries),
		)
		fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
		f.RegisterService(testService("alice", 20))
		link := rootMgmtLink(f)
		// The outage swallows the first try and the first retransmit;
		// the second retransmit (t+15ms) goes through.
		f.Eng().At(1*time.Second, func() { link.PartitionAtoB() })
		f.Eng().At(1*time.Second+8*time.Millisecond, func() { link.Heal() })
		out := fedFetch(f, fc, 1*time.Second, "alice.family.name")
		f.RunAll()
		return out, f.Root()
	}

	hardened, hstats := run(3)
	if !hardened.done || hardened.err != nil {
		t.Fatalf("hardened fetch: done=%v err=%v", hardened.done, hardened.err)
	}
	if hstats.DelegRetx == 0 {
		t.Fatal("hardened root recovered without retransmitting?")
	}
	ablated, astats := run(0)
	if !ablated.done || !errors.Is(ablated.err, ErrFederationFull) {
		t.Fatalf("ablated fetch: done=%v err=%v, want SERVFAIL", ablated.done, ablated.err)
	}
	if astats.DelegRetx != 0 || astats.DelegTimeouts != 1 {
		t.Fatalf("ablation retx=%d timeouts=%d, want 0/1", astats.DelegRetx, astats.DelegTimeouts)
	}
}
