package cluster

import (
	"fmt"
	"testing"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/core"
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
