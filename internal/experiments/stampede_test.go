package experiments

import (
	"testing"
	"time"
)

// TestStampedeClusterGossip is the cluster-tier acceptance: a mass
// migration paced by the congestion controller must not perturb the
// failure detector at all, while the unpaced blast false-suspects
// live boards on the very same seed and byte counts.
func TestStampedeClusterGossip(t *testing.T) {
	paced := runStampedeCluster("paced", false, 2600)
	if paced.suspects != 0 || paced.confirms != 0 {
		t.Errorf("paced rebalance perturbed gossip: %d suspects, %d confirms",
			paced.suspects, paced.confirms)
	}
	if paced.migrated != stampedeServices || paced.failed != 0 {
		t.Errorf("paced rebalance: %d/%d migrated, %d failed",
			paced.migrated, stampedeServices, paced.failed)
	}
	if paced.aborts != 0 {
		t.Errorf("paced rebalance aborted %d transfers", paced.aborts)
	}

	blast := runStampedeCluster("unpaced", true, 2600)
	if blast.suspects == 0 {
		t.Error("unpaced blast did not false-suspect any board — the ablation shows nothing")
	}
	if blast.retx <= paced.retx {
		t.Errorf("unpaced retx %d <= paced %d, expected a retransmit storm",
			blast.retx, paced.retx)
	}
}

// TestStampedeFedDelegation is the federation-tier acceptance: with the
// shed paced, every fetch succeeds and delegation p95 stays within 2x
// the idle baseline; unpaced, the root's retransmit budget dies behind
// the chunk backlog and fetches SERVFAIL.
func TestStampedeFedDelegation(t *testing.T) {
	horizon := 300 * time.Second
	idle := runStampedeFed("idle", false, false, horizon)
	paced := runStampedeFed("paced", true, false, horizon)
	blast := runStampedeFed("unpaced", true, true, horizon)

	if idle.failed() != 0 || idle.delegTimeouts != 0 {
		t.Fatalf("idle baseline unhealthy: %d errors, %d delegation timeouts",
			idle.failed(), idle.delegTimeouts)
	}
	if paced.failed() != 0 || paced.delegTimeouts != 0 {
		t.Errorf("paced shed: %d errors, %d delegation timeouts, want 0/0",
			paced.failed(), paced.delegTimeouts)
	}
	if paced.xmigs != stampedeFedBatch {
		t.Errorf("paced shed moved %d services, want %d", paced.xmigs, stampedeFedBatch)
	}
	if p, i := paced.lat.Percentile(0.95), idle.lat.Percentile(0.95); p > 2*i {
		t.Errorf("paced delegation p95 %v > 2x idle %v", p, i)
	}
	if blast.delegTimeouts == 0 || blast.failed() == 0 {
		t.Errorf("unpaced shed: %d delegation timeouts, %d errors — the ablation shows nothing",
			blast.delegTimeouts, blast.failed())
	}
}

// TestStampedeDeterminism: the whole experiment — latency series plus
// both tiers' management-link captures — double-runs bit-identically.
func TestStampedeDeterminism(t *testing.T) {
	a := Stampede(150 * time.Second)
	b := Stampede(150 * time.Second)
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("fingerprints differ: %016x vs %016x", fa, fb)
	}
	for name, c := range a.Captures {
		if c.Fingerprint() == 0 {
			t.Errorf("capture %q is empty", name)
		}
		if c.Fingerprint() != b.Captures[name].Fingerprint() {
			t.Errorf("capture %q differs across runs", name)
		}
	}
	if len(a.Captures) != 5 {
		t.Errorf("captures = %d, want one per arm (5)", len(a.Captures))
	}
}
