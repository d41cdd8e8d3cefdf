package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netstack"
	"jitsu/internal/unikernel"
)

// The layer's own benches (ROADMAP perf ledger): `make bench` runs them
// beside the root package's and benchjson files them under "cluster".

// BenchmarkClusterStats is one Stats snapshot of a 4-board disk-tiered
// cluster: every service's replicas summed, the boards' trigger counts
// merged, five registries frozen. 64 services is the operator console
// of the repository benchmark's operator_wire; 1k shows what grows with
// the directory (the per-service rows and the boards' ten counter
// mirrors) beside what does not.
func BenchmarkClusterStats(b *testing.B) {
	for _, size := range []struct {
		label string
		n     int
	}{{"64", 64}, {"1k", 1000}} {
		b.Run("services="+size.label, func(b *testing.B) {
			n := size.n
			c := NewCluster(WithBoards(4), WithSeed(1),
				WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())))
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("site%04d", i)
				c.RegisterService(core.ServiceConfig{
					Name: name + "." + c.Cfg.Board.Zone, IP: netstack.IPv4(10, 0, byte(i>>8), byte(i)), Port: 80,
					Image: unikernel.UnikernelImage(name, unikernel.NewStaticSiteApp(name)),
				})
			}
			ctl := c.API()
			rows := 0
			b.ReportAllocs()
			for b.Loop() {
				rows = len(ctl.Stats(api.StatsRequest{}).Services)
			}
			if rows != n {
				b.Fatalf("stats lists %d services, want %d", rows, n)
			}
		})
	}
}

// The directory tier's own benches (ROADMAP 4(b)): one gossip round, one
// summary row, one warm placement per policy, one federated resolution.
// Each op below is built once and shared with TestDirectoryTierAllocs,
// which pins its allocation count.

// gossipTickOp is one probe period of a settled 8-board view: every
// board pings one peer, is acknowledged, and sees its timeout fire.
func gossipTickOp() func() {
	const every = 100 * time.Millisecond
	c := NewCluster(WithBoards(8), WithSeed(1), WithProbing(every, 20*time.Millisecond, time.Second))
	c.RunUntil(2 * time.Second) // ARP settled, buffers and event pool grown
	return func() { c.eng.RunFor(every) }
}

// warmCluster is 4 boards holding n booted services under one policy.
func warmCluster(n int, policy string) *Cluster {
	c := NewCluster(WithBoards(4), WithSeed(1), WithPolicy(PolicyByName(policy)))
	for i := 0; i < n; i++ {
		cfg := testService(fmt.Sprintf("site%02d", i), byte(20+i))
		cfg.Image.MemMiB = 16
		c.RegisterService(cfg, WithMinWarm(1))
	}
	c.RunAll()
	return c
}

// buildSummaryOp renders the row a 64-service cluster pushes to the root.
func buildSummaryOp() func() {
	c := warmCluster(64, "least-loaded")
	return func() {
		if s := c.buildSummary(0, 1, c.eng.Now()); s.Services != 64 || s.Ready != 64 {
			panic(fmt.Sprintf("summary counts %d services, %d ready", s.Services, s.Ready))
		}
	}
}

// placeWarmOp is the scheduler's whole decision for a query that finds a
// booted replica: the arrival observed, the replica picked and touched,
// every pool reconciled around it.
func placeWarmOp(policy string) func() {
	c := warmCluster(16, policy)
	i := 0
	return func() {
		e := c.dir.ordered[i%len(c.dir.ordered)]
		i++
		if p, warm := c.schedule(e, TriggerCluster, nil); p == nil || !warm {
			panic("warm service was not placed warm")
		}
	}
}

// fedResolveOp is one client query through the federation's directory
// tier with the delegation cache hot: the datagram in at the root, the
// delegation to the owning cluster, its scheduler's answer, the referral
// reply out and back at the client.
func fedResolveOp() (op func(), lastReply func() []byte) {
	f := testFederation(2, 2)
	f.RegisterService(testService("alice", 20), WithMinWarm(1))
	f.RunAll()
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	q := dns.Message{ID: 7, RecursionDesired: true,
		Questions: []dns.Question{{Name: "alice.family.name", Type: dns.TypeA, Class: dns.ClassIN}}}
	wire, err := q.Encode()
	if err != nil {
		panic(err)
	}
	var reply []byte
	if err := fc.front.BindUDP(4000, func(_ netstack.IP, _ uint16, payload []byte) { reply = payload }); err != nil {
		panic(err)
	}
	return func() {
		reply = nil
		fc.front.SendUDP(FedRootAddr, 4000, 53, wire)
		f.RunAll()
		if len(reply) < 12 || reply[3]&0xf != byte(dns.RCodeNoError) || reply[7] != 1 {
			panic(fmt.Sprintf("root replied %x", reply))
		}
	}, func() []byte { return reply }
}

func BenchmarkGossipTick(b *testing.B) {
	op := gossipTickOp()
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
}

func BenchmarkBuildSummary(b *testing.B) {
	op := buildSummaryOp()
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
}

func BenchmarkPlaceWarm(b *testing.B) {
	for _, policy := range policyNames {
		b.Run(policy, func(b *testing.B) {
			op := placeWarmOp(policy)
			b.ReportAllocs()
			for b.Loop() {
				op()
			}
		})
	}
}

func BenchmarkFedResolve(b *testing.B) {
	op, _ := fedResolveOp()
	op() // the first resolution scans; the rest hit the delegation cache
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
}

var policyNames = []string{"first-fit", "round-robin", "least-loaded", "power-aware"}

// fedResolveAllocs is what one cached federated resolution allocates
// from the client's datagram to the reply in its hands: root, agent,
// scheduler and the three hosts' stacks.
const fedResolveAllocs = 5

// TestDirectoryTierAllocs pins the benches above, and the client's decode
// of the referral the root sends (A + NS + glue, compressed; it was 10).
func TestDirectoryTierAllocs(t *testing.T) {
	resolve, lastReply := fedResolveOp()
	resolve()
	referral := bytes.Clone(lastReply())
	if m, err := dns.Decode(referral); err != nil || len(m.Answers) != 1 || len(m.Authority) != 1 || len(m.Additional) != 1 {
		t.Fatalf("the root's reply is not a referral: %+v, %v", m, err)
	}
	type pin struct {
		name string
		op   func()
		want float64
	}
	pins := []pin{
		{"gossip tick, 8 boards", gossipTickOp(), 0},
		{"buildSummary, 64 services", buildSummaryOp(), 0},
		{"fed resolve, cache hot", resolve, fedResolveAllocs},
		{"decode referral", func() { dns.Decode(referral) }, 5},
	}
	for _, policy := range policyNames {
		pins = append(pins, pin{"place warm, " + policy, placeWarmOp(policy), 0})
	}
	for _, pin := range pins {
		if got := testing.AllocsPerRun(200, pin.op); got != pin.want {
			t.Errorf("%s: %.2f allocs per run, want %.0f", pin.name, got, pin.want)
		}
	}
	// Two hundred answers on, the member's shared referral records are
	// what they were: every reply still carries exactly one of each.
	if last := lastReply(); !bytes.Equal(last, referral) {
		t.Errorf("the root's 202nd reply %x differs from its first %x", last, referral)
	}
}
