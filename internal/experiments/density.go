package experiments

import (
	"fmt"
	"time"

	"jitsu/internal/blockdev"
	"jitsu/internal/core"
	"jitsu/internal/metrics"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
)

// The density workload: many more registered services than fit in
// memory, visited once each in sequence. The warm-only baseline holds
// replicas until admission refuses; the three-tier board demotes the
// least-recently-used replica's checkpoint to disk and keeps serving —
// the paper's density claim (§2): a board hosts orders of magnitude
// more services than fit in memory because they only materialize on
// demand.
const (
	// densityStateMiB is the declared live-state size per service: the
	// dirty heap a checkpoint captures, a quarter of the 16 MiB image.
	densityStateMiB = 4
	// densityGap spaces the visit schedule so each activation (boot +
	// any demotion it forces) completes before the next arrives.
	densityGap = time.Second
)

func densityBoard(seed int64, memMiB int, disk bool) *core.Board {
	opts := []core.Option{core.WithSeed(seed), core.WithMemory(memMiB)}
	if disk {
		opts = append(opts, core.WithDisk(blockdev.DefaultConfig()))
	}
	return core.New(opts...)
}

func densityRegister(b *core.Board, n int) []*core.Service {
	svcs := make([]*core.Service, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("svc%03d.family.name", i)
		svcs = append(svcs, b.Jitsu.Register(core.ServiceConfig{
			Name:     name,
			IP:       netstack.IPv4(10, 1, byte(i>>8), byte(i)),
			Port:     80,
			StateMiB: densityStateMiB,
			Image:    unikernel.UnikernelImage(fmt.Sprintf("svc%03d", i), unikernel.NewStaticSiteApp(name)),
		}))
	}
	return svcs
}

// densityFill is one sequential visit sweep over every service.
type densityFill struct {
	lat     *metrics.Series
	refused int
}

func runDensityFill(b *core.Board, svcs []*core.Service, label string) *densityFill {
	out := &densityFill{lat: &metrics.Series{Name: label}}
	for i, svc := range svcs {
		i, svc := i, svc
		b.Eng.At(sim.Duration(i)*densityGap, func() {
			t0 := b.Eng.Now()
			err := b.Jitsu.Activate(svc, true, func(err error) {
				if err == nil {
					out.lat.Add(b.Eng.Now() - t0)
				}
			})
			if err != nil {
				out.refused++
			}
		})
	}
	b.Eng.Run()
	return out
}

// tierCounts tallies replica residency by lifecycle tier.
func tierCounts(svcs []*core.Service) (running, warmMem, onDisk int) {
	for _, s := range svcs {
		switch s.State {
		case core.StateRunning:
			running++
		case core.StateWarmMemory:
			warmMem++
		case core.StateColdDisk:
			onDisk++
		}
	}
	return
}

// runDensityPricing isolates the three activation legs on an otherwise
// idle board: full cold boot, warm restore from an in-memory
// checkpoint, and restore paged in from the disk tier (seek + transfer
// on the virtual clock, then the warm-restore leg). The disk leg must
// price strictly between the other two.
func runDensityPricing(seed int64, samples int) (boot, warm, diskR *metrics.Series) {
	b := densityBoard(seed, 64, true)
	svc := densityRegister(b, 1)[0]
	boot = &metrics.Series{Name: "density.boot"}
	warm = &metrics.Series{Name: "density.warm_restore"}
	diskR = &metrics.Series{Name: "density.disk_restore"}

	measure := func(s *metrics.Series, start func(onReady func(error))) {
		t0 := b.Eng.Now()
		done := false
		start(func(err error) {
			if err == nil {
				s.Add(b.Eng.Now() - t0)
				done = true
			}
		})
		b.Eng.Run()
		if !done {
			panic(fmt.Sprintf("density pricing: %s leg never completed", s.Name))
		}
	}

	var cp *core.Checkpoint
	for i := 0; i < samples; i++ {
		measure(boot, func(onReady func(error)) {
			if err := b.Jitsu.Activate(svc, true, onReady); err != nil {
				panic(err)
			}
		})
		if cp == nil {
			cp, _ = b.Jitsu.Checkpoint(svc)
		}
		b.Jitsu.Evict(svc)
		b.Eng.Run()
	}
	for i := 0; i < samples; i++ {
		measure(warm, func(onReady func(error)) {
			if err := b.Jitsu.Restore(svc, cp, onReady); err != nil {
				panic(err)
			}
		})
		b.Jitsu.Evict(svc)
		b.Eng.Run()
	}
	for i := 0; i < samples; i++ {
		// Park the checkpoint on disk, then page it back in via a
		// client activation — the disk-restore launch leg.
		if err := b.Jitsu.Restore(svc, cp, nil); err != nil {
			panic(err)
		}
		b.Eng.Run()
		if err := b.Jitsu.Demote(svc); err != nil {
			panic(err)
		}
		b.Eng.Run()
		measure(diskR, func(onReady func(error)) {
			if err := b.Jitsu.Activate(svc, true, onReady); err != nil {
				panic(err)
			}
		})
		b.Jitsu.Evict(svc)
		b.Eng.Run()
	}
	return boot, warm, diskR
}

// Density contrasts a warm-only board against the same board with the
// disk checkpoint tier at equal memory: how many of `services`
// registered services each can hold resident after one visit sweep,
// and what the three activation legs cost. The three-tier board parks
// LRU checkpoints on disk under memory pressure instead of refusing,
// so its held count is bounded by the checkpoint store, not RAM.
func Density(services, memMiB, samples int) *Result {
	r := newResult("Density", "services held per GB across the three lifecycle tiers")

	base := densityBoard(31001, memMiB, false)
	baseFill := runDensityFill(base, densityRegister(base, services), "density.warm_only")
	baseSvcs := base.Jitsu.Services()

	tiered := densityBoard(31001, memMiB, true)
	tieredSvcs := densityRegister(tiered, services)
	tieredFill := runDensityFill(tiered, tieredSvcs, "density.three_tier")

	gb := float64(memMiB) / 1024
	tab := metrics.NewTable("",
		"board", "services", "held", "running", "warm-mem", "on-disk", "refused", "held/GB")
	bRun, bWarm, bDisk := tierCounts(baseSvcs)
	tRun, tWarm, tDisk := tierCounts(tieredSvcs)
	baseHeld := bRun + bWarm + bDisk
	tieredHeld := tRun + tWarm + tDisk
	tab.AddRow("warm-only", services, baseHeld, bRun, bWarm, bDisk,
		baseFill.refused, fmt.Sprintf("%.0f", float64(baseHeld)/gb))
	tab.AddRow("three-tier", services, tieredHeld, tRun, tWarm, tDisk,
		tieredFill.refused, fmt.Sprintf("%.0f", float64(tieredHeld)/gb))

	boot, warm, diskR := runDensityPricing(31002, samples)
	price := metrics.NewTable("",
		"activation leg", "n", "p50", "p95")
	for _, s := range []*metrics.Series{warm, diskR, boot} {
		sum := s.Summarize()
		price.AddRow(s.Name, sum.Len(), sum.P50(), sum.P95())
	}

	r.Series[baseFill.lat.Name] = baseFill.lat
	r.Series[tieredFill.lat.Name] = tieredFill.lat
	r.Series[boot.Name] = boot
	r.Series[warm.Name] = warm
	r.Series[diskR.Name] = diskR
	r.Output = tab.String() + "\n" + price.String()
	if baseHeld > 0 {
		r.addNote("density gain: %.1fx services held per GB at equal memory (%d vs %d in %d MiB)",
			float64(tieredHeld)/float64(baseHeld), tieredHeld, baseHeld, memMiB)
	}
	r.addNote("expected shape: the disk-restore leg prices strictly between the warm restore (checkpoint already in memory) and the full cold boot — a seek plus a sequential read of the declared live state, then the restore path")
	return r
}
