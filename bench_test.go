package jitsu_test

// One benchmark per table and figure of the paper's evaluation (§4),
// plus the ablations DESIGN.md calls out. Each benchmark runs the full
// deterministic simulation for its artefact and reports the headline
// quantity via b.ReportMetric, so `go test -bench=. -benchmem` prints a
// compact reproduction of the whole evaluation.

import (
	"testing"
	"time"

	"jitsu/internal/experiments"
)

func reportP50(b *testing.B, r interface {
	Percentile(float64) time.Duration
}, name string) {
	b.ReportMetric(float64(r.Percentile(0.5))/1e6, name+"-p50-ms")
}

// BenchmarkFig3XenstoreReconciliation regenerates Figure 3: parallel VM
// start/stop under the three xenstored engines.
func BenchmarkFig3XenstoreReconciliation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3([]int{1, 10, 25})
		if i == 0 {
			c := r.Series["C xenstored"].Samples
			j := r.Series["Jitsu xenstored"].Samples
			b.ReportMetric(float64(c[len(c)-1])/1e9, "C-at-25-sec")
			b.ReportMetric(float64(j[len(j)-1])/1e9, "Jitsu-at-25-sec")
		}
	}
}

// BenchmarkFig4DomainBuild regenerates Figure 4: domain build time vs
// memory across the toolstack optimisation stages.
func BenchmarkFig4DomainBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4()
		if i == 0 {
			b.ReportMetric(float64(r.Series["Xen 4.4.0 (bash hotplug)@16"].Percentile(0.5))/1e6, "vanilla16-ms")
			b.ReportMetric(float64(r.Series["remove primary console@16"].Percentile(0.5))/1e6, "optimised16-ms")
			b.ReportMetric(float64(r.Series["switch ARM -> x86@16"].Percentile(0.5))/1e6, "x86-16-ms")
		}
	}
}

// BenchmarkFig8ICMPLatency regenerates Figure 8: datapath RTT per target.
func BenchmarkFig8ICMPLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(20)
		if i == 0 {
			b.ReportMetric(float64(r.Series["linux@1400"].Percentile(0.5))/1e3, "linux1400-us")
			b.ReportMetric(float64(r.Series["mirage@1400"].Percentile(0.5))/1e3, "mirage1400-us")
		}
	}
}

// BenchmarkFig9aColdStart regenerates Figure 9a: cold-start response
// time CDFs with and without Synjitsu.
func BenchmarkFig9aColdStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9a(25)
		if i == 0 {
			reportP50(b, r.Series["cold start, no synjitsu"], "nosyn")
			reportP50(b, r.Series["synjitsu + optimised toolstack"], "optimised")
		}
	}
}

// BenchmarkFig9bDockerStart regenerates Figure 9b: Docker container
// start CDFs per storage backend.
func BenchmarkFig9bDockerStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9b(60)
		if i == 0 {
			reportP50(b, r.Series["docker, ext4 on tmpfs"], "tmpfs")
			reportP50(b, r.Series["docker, ext4 on SD card"], "sdcard")
		}
	}
}

// BenchmarkTable1Power regenerates Table 1 from the board power models.
func BenchmarkTable1Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		if len(r.Output) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2CVE regenerates Table 2 via the CVE classifier.
func BenchmarkTable2CVE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2()
		if len(r.Output) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkThroughput regenerates the §4 throughput checks.
func BenchmarkThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Throughput()
		if len(r.Output) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkHeadlineLatency regenerates the §3/§6 headline numbers.
func BenchmarkHeadlineLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Headline(4)
		if i == 0 {
			reportP50(b, r.Series["ARM cold start"], "arm-cold")
			reportP50(b, r.Series["ARM warm request"], "arm-warm")
			reportP50(b, r.Series["x86 cold start"], "x86-cold")
		}
	}
}

// BenchmarkScalingClusterVsFleet runs the cluster-control-plane scaling
// experiment at 4 boards and reports both systems' p95
// time-to-first-response.
func BenchmarkScalingClusterVsFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Scaling([]int{4}, 90*time.Second)
		if i == 0 {
			b.ReportMetric(float64(r.Series["fleet@4"].Percentile(0.95))/1e6, "fleet-p95-ms")
			b.ReportMetric(float64(r.Series["cluster@4"].Percentile(0.95))/1e6, "cluster-p95-ms")
		}
	}
}

// BenchmarkDensityRestore runs the disk-checkpoint-tier density
// experiment and reports the three activation legs' p95 — the
// disk-restore leg must price between the warm restore and the cold
// boot — plus the density gain over the warm-only baseline.
func BenchmarkDensityRestore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Density(48, 128, 20)
		if i == 0 {
			b.ReportMetric(float64(r.Series["density.warm_restore"].Percentile(0.95))/1e6, "warm-p95-ms")
			b.ReportMetric(float64(r.Series["density.disk_restore"].Percentile(0.95))/1e6, "disk-p95-ms")
			b.ReportMetric(float64(r.Series["density.boot"].Percentile(0.95))/1e6, "boot-p95-ms")
		}
	}
}

// BenchmarkChurnMigration runs the dynamic-membership churn experiment
// and reports both departure policies' post-leave p95
// time-to-first-response: live migration vs preempt-and-reboot.
func BenchmarkChurnMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Churn(75 * time.Second)
		if i == 0 {
			b.ReportMetric(float64(r.Series["churn-migrate post-leave"].Percentile(0.95))/1e6, "migrate-p95-ms")
			b.ReportMetric(float64(r.Series["churn-preempt post-leave"].Percentile(0.95))/1e6, "preempt-p95-ms")
		}
	}
}

// BenchmarkFederationSkew runs the cluster-of-clusters experiment and
// reports the federation's post-skew p95 time-to-first-response before
// and after the automatic cross-cluster rebalance, next to the frozen
// (no-rebalance) federation's unrecovered late window.
func BenchmarkFederationSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Federation(60 * time.Second)
		if i == 0 {
			b.ReportMetric(float64(r.Series["fed-4x4 post-skew-early"].Percentile(0.95))/1e6, "fed-early-p95-ms")
			b.ReportMetric(float64(r.Series["fed-4x4 post-skew-late"].Percentile(0.95))/1e6, "fed-late-p95-ms")
			b.ReportMetric(float64(r.Series["fed-4x4-norebalance post-skew-late"].Percentile(0.95))/1e6, "frozen-late-p95-ms")
		}
	}
}

// BenchmarkHostileFlash runs the hostile-network experiment family and
// reports the flash crowd's client-perceived p95 over a perfect link,
// over the 5%-lossy edge with the hardened DNS retry policy, and under
// the single-datagram ablation (whose tail is censored at the 10s
// client timeout).
func BenchmarkHostileFlash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Hostile(60, 60*time.Second)
		if i == 0 {
			b.ReportMetric(float64(r.Series["flash perfect link"].Percentile(0.95))/1e6, "perfect-p95-ms")
			b.ReportMetric(float64(r.Series["flash lossy+retry"].Percentile(0.95))/1e6, "retry-p95-ms")
			b.ReportMetric(float64(r.Series["flash lossy no-retry"].Percentile(0.95))/1e6, "ablation-p95-ms")
		}
	}
}

// BenchmarkStampede runs the mass-rebalance experiment at the quick
// horizon and reports the federation tier's delegation p95 under the
// paced shed next to the idle baseline — the "control traffic stays
// flat" claim as one number pair.
func BenchmarkStampede(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Stampede(150 * time.Second)
		if i == 0 {
			b.ReportMetric(float64(r.Series["fed-idle"].Percentile(0.95))/1e6, "idle-p95-ms")
			b.ReportMetric(float64(r.Series["fed-paced-shed"].Percentile(0.95))/1e6, "paced-p95-ms")
			b.ReportMetric(float64(r.Series["fed-unpaced-shed"].Percentile(0.95))/1e6, "unpaced-p95-ms")
		}
	}
}

// BenchmarkPrewarmTrigger runs the predictive-trigger experiment and
// reports both policies' steady-state p95 time-to-first-response: the
// learned prewarm path vs the cold boot every recurring visit pays
// without it.
func BenchmarkPrewarmTrigger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Prewarm(40)
		if i == 0 {
			b.ReportMetric(float64(r.Series["prewarm-on steady"].Percentile(0.95))/1e6, "on-p95-ms")
			b.ReportMetric(float64(r.Series["prewarm-off steady"].Percentile(0.95))/1e6, "off-p95-ms")
		}
	}
}

// ---- ablation benches (DESIGN.md §5) ----

func BenchmarkAblationMergeStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationMergeStrategies(15)
	}
}

func BenchmarkAblationPrecreatedDomains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationPrecreatedDomains()
	}
}

func BenchmarkAblationSynjitsu(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationSynjitsuMatrix(5)
	}
}

func BenchmarkAblationParallelAttach(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationParallelAttach()
	}
}

func BenchmarkAblationHotplug(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationHotplug()
	}
}

func BenchmarkAblationDelayedDNS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationDelayedDNS(5)
	}
}
