// Homepages is the §3.3.2 scenario: "a set of personal homepages and
// photographs" for one family, hosted on a single ARM board registered
// as the nameserver for family.name. Each member's site is a separate
// unikernel, summoned on demand and reaped when idle, so the board
// hosts many isolated tenants with only the active ones resident.
//
//	go run ./examples/homepages
package main

import (
	"fmt"
	"time"

	"jitsu/internal/core"
	"jitsu/internal/metrics"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
)

func main() {
	// A modest board: 16 sites cannot all run at once... but they don't need to.
	board := core.New(core.WithMemory(256))

	family := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
		"ivan", "judy", "kevin", "laura", "mallory", "nina", "oscar", "peggy"}
	for i, who := range family {
		app := unikernel.NewStaticSiteApp(who)
		app.Pages["/photos"] = []byte(fmt.Sprintf("<html>%s's holiday photos (kept at home, not in the cloud)</html>", who))
		board.Jitsu.Register(core.ServiceConfig{
			Name:        who + ".family.name",
			IP:          netstack.IPv4(10, 0, 1, byte(10+i)),
			Port:        80,
			IdleTimeout: 20 * time.Second,
			Image:       unikernel.UnikernelImage(who, app),
		})
	}
	fmt.Printf("%d personal sites registered on one %s — all stopped, %d MiB free\n\n",
		len(family), board.Hyp.Platform.Name, board.Hyp.FreeMemMiB())

	client := board.AddClient("visitor", netstack.IPv4(10, 0, 0, 9))
	lat := &metrics.Series{Name: "visit latency"}
	maxResident := 0

	// A browsing session: visitors wander across the family's sites,
	// with revisits (warm) and pauses long enough for reaps.
	visits := []struct {
		at   sim.Duration
		who  string
		path string
	}{
		{0, "alice", "/"},
		{1 * time.Second, "alice", "/photos"},
		{2 * time.Second, "bob", "/"},
		{3 * time.Second, "carol", "/photos"},
		{4 * time.Second, "dave", "/"},
		{5 * time.Second, "erin", "/"},
		{6 * time.Second, "alice", "/photos"},
		{30 * time.Second, "frank", "/"}, // earlier sites reaped by now
		{31 * time.Second, "grace", "/photos"},
		{60 * time.Second, "alice", "/"}, // cold again
	}
	for _, v := range visits {
		v := v
		board.Eng.At(v.at, func() {
			board.FetchViaDNS(client, v.who+".family.name", v.path, 15*time.Second,
				func(resp *netstack.HTTPResponse, d sim.Duration, err error) {
					status := 0
					if resp != nil {
						status = resp.Status
					}
					fmt.Printf("%8v  GET %s%s -> %d in %8v   (%d VMs resident)\n",
						board.Eng.Now().Round(time.Millisecond), v.who+".family.name",
						v.path, status, d.Round(100*time.Microsecond), resident(board))
					if err == nil {
						lat.Add(d)
					}
					if r := resident(board); r > maxResident {
						maxResident = r
					}
				})
		})
	}
	board.Eng.Run()

	fmt.Printf("\n%s\n", lat.Summary())
	fmt.Printf("peak resident sites: %d of %d registered (memory for all 16 would not even fit)\n",
		maxResident, len(family))
	fmt.Printf("final resident: %d, free memory: %d MiB\n", resident(board), board.Hyp.FreeMemMiB())
	fmt.Printf("synjitsu: proxied %d handshakes across %d handoffs\n", board.Syn.Proxied, board.Syn.HandedOff)
}

func resident(b *core.Board) int {
	n := 0
	for _, svc := range b.Jitsu.Services() {
		if svc.State.Booted() {
			n++
		}
	}
	return n
}
