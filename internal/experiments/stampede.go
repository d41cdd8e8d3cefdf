package experiments

import (
	"fmt"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/cluster"
	"jitsu/internal/metrics"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// The Stampede experiment: what happens to the *control* traffic when
// the management network suddenly has to carry a mass rebalance. Two
// tiers, same question.
//
// Cluster tier: every board's services migrate at once (the most
// violent skew-rebalance a cluster can run) while SWIM keeps probing
// over the same throttled management links. The checkpoint chunks are
// paced by the per-board congestion controller; the ablation arm blasts
// the whole backlog instead. Pacing bounds each uplink's queue to a few
// chunks, so probe acks still return inside the failure detector's
// timeout; the unpaced blast parks seconds of bulk ahead of every ack
// and the detector starts suspecting boards that are perfectly alive.
//
// Federation tier: a WAN-shaped federation (20 ms RTT, 50 Mb/s links)
// sheds a batch of warm services from cluster 0 to cluster 1 while an
// edge client keeps fetching the very names being moved — each fetch's
// DNS resolution is delegated over the donor agent's uplink, the same
// link the checkpoint chunks occupy. Paced, delegation replies queue
// behind at most a window of chunks and every fetch succeeds; unpaced,
// the replies sit behind the full backlog, the root's retransmit budget
// runs out, and delegations SERVFAIL.
const (
	stampedeBoards   = 4
	stampedeServices = 8
	// stampedeStateMiB: 16 chunks of 1 MiB per move — 8 concurrent moves
	// put 128 MiB on four 200 Mb/s uplinks at the same instant.
	stampedeStateMiB = 16
	stampedeMgmtBits = 200e6
	stampedeT0       = 30 * time.Second
	stampedeHorizon  = 90 * time.Second

	stampedeFedServices = 8
	// stampedeFedStateMiB: 8 chunks of 1 MiB per shed service; a batch of
	// four is ~5.4 s of backlog on the 50 Mb/s WAN uplink — far beyond
	// the root's whole delegation retransmit budget (100 ms × 2^k, 3
	// retries ≈ 1.5 s).
	stampedeFedStateMiB  = 8
	stampedeFedBatch     = 4
	stampedeFedT0        = 60 * time.Second
	stampedeFetchGap     = 250 * time.Millisecond
	stampedeFetchTimeout = 10 * time.Second
)

type stampedeClusterRun struct {
	label              string
	migrated, failed   int
	moveWall           sim.Duration
	probes             uint64
	suspects, confirms uint64
	chunks, retx       uint64
	aborts             uint64
	cap                *netsim.Capture
}

// runStampedeCluster boots 8 services across 4 boards, lets gossip
// settle, then migrates every service off its board at the same
// instant.
func runStampedeCluster(label string, unpaced bool, seed int64) *stampedeClusterRun {
	c := cluster.NewCluster(
		cluster.WithBoards(stampedeBoards),
		cluster.WithSeed(seed),
		cluster.WithProbing(500*time.Millisecond, 400*time.Millisecond, 2*time.Second),
		cluster.WithUnpacedTransfers(unpaced),
		cluster.WithMgmtLink(stampedeMgmtBits, 1),
	)
	tap := netsim.NewCapture(c.Eng(), 1<<14)
	c.MgmtLink(1).Tap(tap)

	boards := make([]int, stampedeServices)
	names := make([]string, stampedeServices)
	for s := 0; s < stampedeServices; s++ {
		sc := staticSite("mv", s, 30, 64)
		sc.StateMiB, sc.IdleTimeout = stampedeStateMiB, time.Hour
		names[s] = sc.Name
		c.RegisterService(sc)
		resp := c.API().Activate(api.ActivateRequest{Name: names[s]})
		if resp.Err != nil {
			panic(fmt.Sprintf("stampede: activate %s: %v", names[s], resp.Err))
		}
		boards[s] = resp.Board
	}
	c.Eng().RunUntil(stampedeT0)

	out := &stampedeClusterRun{label: label, cap: tap}
	for s := 0; s < stampedeServices; s++ {
		resp := c.API().Migrate(api.MigrateRequest{
			Name: names[s], From: api.OnBoard(boards[s]),
			OnDone: func(ok bool) {
				if ok {
					out.migrated++
				} else {
					out.failed++
				}
				if w := c.Eng().Now() - stampedeT0; w > out.moveWall {
					out.moveWall = w
				}
			},
		})
		if resp.Err != nil {
			out.failed++
		}
	}
	c.Eng().RunUntil(stampedeHorizon)

	out.probes, out.suspects, out.confirms = c.Probes, c.Suspects, c.Confirms
	out.chunks, out.retx, out.aborts = c.Chunks, c.ChunkRetx, c.XferAborts
	return out
}

type stampedeFedRun struct {
	label                    string
	tally                    // every failure counts alike here: see failed()
	delegRetx, delegTimeouts uint64
	chunks, retx             uint64
	xmigs                    uint64
	cap                      *netsim.Capture
}

// runStampedeFed builds a 2-cluster federation on WAN-shaped links and
// keeps one edge client fetching the four services homed on cluster 0
// while (in the shed arms) all four are shed to cluster 1 at t0.
func runStampedeFed(label string, shed, unpaced bool, horizon sim.Duration) *stampedeFedRun {
	f := cluster.NewFederation(
		cluster.WithClusters(2),
		cluster.WithMemberOptions(cluster.WithBoards(3), cluster.WithSeed(2600),
			cluster.WithUnpacedTransfers(unpaced)),
		// No WithSummaryEvery: the skew detector never runs, and the shed
		// is issued by hand at t0.
		cluster.WithWAN(netsim.WAN20ms()),
	)
	tap := netsim.NewCapture(f.Eng(), 1<<15)
	f.Members()[0].MgmtLink().Tap(tap)

	var donorNames []string
	for s := 0; s < stampedeFedServices; s++ {
		sc := staticSite("shed", s, 100, 64)
		sc.StateMiB, sc.IdleTimeout = stampedeFedStateMiB, time.Hour
		if m, _ := f.RegisterService(sc); m.ID == 0 {
			donorNames = append(donorNames, sc.Name)
		}
	}
	if len(donorNames) != stampedeFedBatch {
		panic(fmt.Sprintf("stampede: %d services homed on cluster 0, want %d",
			len(donorNames), stampedeFedBatch))
	}

	out := &stampedeFedRun{label: label, tally: tally{lat: &metrics.Series{Name: label}}, cap: tap}
	fc := f.NewClient("edge-client", netstack.IPv4(10, 0, 0, 9))
	var trace []arrival
	for at, i := sim.Duration(time.Second), 0; at < horizon; at, i = at+stampedeFetchGap, i+1 {
		trace = append(trace, arrival{at: at, name: donorNames[i%len(donorNames)]})
	}
	replay(f.Eng(), trace, fedFetch(fc, stampedeFetchTimeout), out.record)
	if shed {
		f.Eng().At(stampedeFedT0, func() {
			if err := f.Shed(0, 1, stampedeFedBatch); err != nil {
				panic(fmt.Sprintf("stampede: shed: %v", err))
			}
		})
	}
	f.RunUntil(horizon + 15*time.Second)
	f.Stop()
	f.RunAll()

	root := f.Root()
	out.delegRetx, out.delegTimeouts = root.DelegRetx, root.DelegTimeouts
	out.chunks, out.retx = f.FedChunks, f.FedChunkRetx
	out.xmigs = f.CrossMigrations
	return out
}

// Stampede contrasts CC-paced mass rebalances with the unpaced ablation
// at both tiers. fedHorizon stretches the federation fetch loop; the
// shed occupies a fixed ~5 s of it, so longer horizons sharpen the
// "p95 stays flat" claim.
func Stampede(fedHorizon sim.Duration) *Result {
	r := newResult("Stampede", "mass rebalance vs control traffic on shared management links")

	paced := runStampedeCluster("cluster-paced", false, 2600)
	blast := runStampedeCluster("cluster-unpaced", true, 2600)
	idle := runStampedeFed("fed-idle", false, false, fedHorizon)
	fedPaced := runStampedeFed("fed-paced-shed", true, false, fedHorizon)
	fedBlast := runStampedeFed("fed-unpaced-shed", true, true, fedHorizon)

	tab := metrics.NewTable("cluster tier: migrate every service at once, gossip watching",
		"arm", "migrated", "failed", "move-wall", "probes", "suspects", "confirms", "chunks", "chunk-retx")
	for _, o := range []*stampedeClusterRun{paced, blast} {
		tab.AddRow(o.label, o.migrated, o.failed, o.moveWall,
			o.probes, o.suspects, o.confirms, o.chunks, o.retx)
		r.Captures[o.label+" board1 mgmt"] = o.cap
	}
	fedTab := metrics.NewTable("federation tier: shed cluster 0's services over the WAN mid-fetch",
		"arm", "fetch-ok", "errors", "p50", "p95", "max", "deleg-retx", "deleg-timeouts", "xmigs", "chunk-retx")
	for _, o := range []*stampedeFedRun{idle, fedPaced, fedBlast} {
		d := o.lat.Summarize()
		fedTab.AddRow(o.label, d.Len(), o.failed(), d.P50(), d.P95(), d.Max(),
			o.delegRetx, o.delegTimeouts, o.xmigs, o.retx)
		r.Series[o.lat.Name] = o.lat
		r.Captures[o.label+" agent0 mgmt"] = o.cap
	}
	r.Output = tab.String() + "\n" + fedTab.String()
	r.addNote("cluster tier: %d services x %d MiB of checkpoint state move concurrently over four %g Mb/s management uplinks; the congestion controller keeps each uplink's queue to a window of 1 MiB chunks, so SWIM probe acks (timeout 400ms) keep landing — %d suspects paced vs %d unpaced, on identical seeds and byte counts", stampedeServices, stampedeStateMiB, stampedeMgmtBits/1e6, paced.suspects, blast.suspects)
	r.addNote("federation tier: a batch of %d warm services (%d MiB each) sheds across a %s path while the edge client fetches those very names every %v; each fetch's delegated resolution shares the donor agent's uplink with the chunk exchange — paced p95 %v vs idle %v with %d timeouts, unpaced loses %d fetches to SERVFAIL (%d delegation timeouts)", stampedeFedBatch, stampedeFedStateMiB, netsim.WAN20ms().Name, stampedeFetchGap, fedPaced.lat.Summarize().P95(), idle.lat.Summarize().P95(), fedPaced.delegTimeouts, fedBlast.failed(), fedBlast.delegTimeouts)
	r.addNote("both tiers move the same bytes in both arms — pacing trades no throughput; it only bounds how much bulk may sit ahead of a control datagram on the shared FIFO links")
	return r
}
