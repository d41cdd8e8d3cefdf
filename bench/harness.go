package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"syscall"
	"time"

	"jitsu/internal/sim"
)

// workloadDef names one workload and builds one rep's world from the
// seed. scale divides the request count (1 = the benchmark, 50 = the
// tier-1 smoke tests); everything else about the shape stays put.
type workloadDef struct {
	name  string
	why   string
	build func(seed int64, scale int, rec *recorder) world
}

var workloads = []workloadDef{
	{
		name: "cold_storm",
		why:  "open loop, 8 fetches/s on 200 services that reap after 2 s: 90 % cold starts, so xenstore, toolstack, boot and Synjitsu handoff carry the time",
		build: func(seed int64, scale int, rec *recorder) world {
			return newColdStorm(seed, coldRate, coldHorizon/sim.Duration(scale), rec)
		},
	},
	{
		name: "warm_fetch",
		why:  "closed loop, 4 clients on 16 booted services: no launch and no XenStore commit, so dns, netstack, netsim and the event loop carry the time",
		build: func(seed int64, scale int, rec *recorder) world {
			return newWarmFetch(seed, warmFetches/scale, rec)
		},
	},
	{
		name: "fed_skew",
		why:  "open loop on a 4x4 federation whose cluster 0 turns hot: root delegation, summaries, gossip, placement and cc-paced cross-cluster transfers",
		build: func(seed int64, scale int, rec *recorder) world {
			// The skew must still happen at test scale, so the horizon
			// shrinks less than the other workloads' request counts.
			return newFedSkew(seed, fedHorizon/sim.Duration(min(scale, 8)), rec)
		},
	},
	{
		name: "operator_wire",
		why:  "closed loop, 3 scoped wire sessions driving lifecycle verbs and stats on a 4-board cluster with disks: wire, api, obs snapshots and long-lived TCP",
		build: func(seed int64, scale int, rec *recorder) world {
			return newOperatorWire(seed, max(wireRounds/scale, wireRefuseEvery), rec)
		},
	},
}

// gaugeCounts are read as they stand after the rep; every other count
// is the difference across the timed section.
var gaugeCounts = map[string]bool{"sim.max_pending": true}

// repResult is everything one rep measured, on both clocks.
type repResult struct {
	attempted, failed, firstFailed int
	samples                        int
	p50, p99                       sim.Duration
	fingerprint                    uint64
	counts                         map[string]uint64
	violations, failures           []string
	virt                           sim.Duration

	// setups holds the set-up time of this rep's world and of
	// extraSetups more worlds built and dropped right after it.
	setups         []time.Duration
	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	heapInuse      uint64

	rec *recorder
}

// cpuTime is this process's user+system CPU time, the collector's
// included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRep builds a fresh world (the set-up), runs its timed section and
// checks it. A non-nil recorder makes it the traced rep.
func runRep(def *workloadDef, seed int64, scale int, rec *recorder) repResult {
	runtime.GC()
	t0 := time.Now()
	w := def.build(seed, scale, rec)
	before := w.counters()
	v0 := w.virtualNow()
	r := repResult{setups: []time.Duration{time.Since(t0)}, rec: rec}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t1 := cpuTime(), time.Now()
	w.run()
	r.wall, r.cpu = time.Since(t1), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcCycles, r.heapInuse = m1.NumGC-m0.NumGC, m1.HeapInuse
	r.virt = w.virtualNow() - v0

	w.finish()
	after := w.counters()
	r.counts = map[string]uint64{}
	for k, v := range after {
		if gaugeCounts[k] {
			r.counts[k] = v
		} else {
			r.counts[k] = v - before[k]
		}
	}
	o := w.outcome()
	r.attempted, r.failed, r.firstFailed, r.samples = o.attempted, o.failed, o.firstFailed, len(o.lat)
	r.violations, r.failures = o.violations, o.failures
	if r.attempted == 0 {
		r.violations = append(r.violations, "no request was attempted")
	}
	r.p50, r.p99 = pct(o.lat, 0.50), pct(o.lat, 0.99)
	r.fingerprint = fingerprint(o, r.counts)
	if n := w.flight().Dropped(); n > 0 {
		r.violations = append(r.violations, fmt.Sprintf("the flight recorder overwrote %d events: raise tracerRing", n))
	}
	rec.importTracer(w.flight())
	if rec == nil {
		// After the rep, so the timed section starts from the same heap
		// whether or not set-ups are sampled.
		runtime.GC()
		for i := 0; i < extraSetups; i++ {
			t := time.Now()
			def.build(seed, scale, nil)
			r.setups = append(r.setups, time.Since(t))
		}
	}
	return r
}

// fingerprint is the rep's virtual identity: FNV-1a over the latency
// samples in completion order, the request tallies and the count
// snapshot in name order. Same seed, same code: same fingerprint, on
// every rep and with the recorder on.
func fingerprint(o *outcome, counts map[string]uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(n uint64) {
		for i := range buf {
			buf[i] = byte(n >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, d := range o.lat {
		put(uint64(d))
	}
	put(uint64(o.attempted))
	put(uint64(o.failed))
	put(uint64(o.firstFailed))
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h.Write([]byte(k))
		put(counts[k])
	}
	return h.Sum64()
}

func formatFingerprint(f uint64) string { return fmt.Sprintf("%016x", f) }

// pct returns the q-th quantile (nearest rank) of the samples.
func pct(samples []sim.Duration, q float64) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]sim.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(v, n=4) does (the 'exclusive'
// method), so the spreads printed here are the ones the driver takes.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func ms(d sim.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stat is one reported number: the median over reps for host metrics,
// the exact value for virtual ones (Q1 = Q3 = Value, one sample).
type stat struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples,omitempty"`
}

func exact(v float64, unit string) stat { return stat{Value: v, Unit: unit, Q1: v, Q3: v} }

func median(samples []float64, unit string) stat {
	q1, med, q3 := quartiles(samples)
	return stat{Value: med, Unit: unit, Q1: q1, Q3: q3, Samples: samples}
}

// summary is one workload's untraced reps folded into the end-to-end
// metrics, plus what the report prints beside them.
type summary struct {
	Workload    string          `json:"workload"`
	Reps        int             `json:"reps"`
	Attempted   int             `json:"attempted"`
	Failed      int             `json:"failed"`
	FirstFailed int             `json:"first_attempt_failures"`
	LatSamples  int             `json:"lat_samples"`
	Fingerprint string          `json:"fingerprint"`
	EndToEnd    map[string]stat `json:"end_to_end"`
	Violations  []string        `json:"violations,omitempty"`
	// Failures says why the first rep's failed requests failed (every
	// rep fails the same ones).
	Failures []string `json:"failures,omitempty"`

	reps []repResult
}

// summarize folds reps of one workload. Every rep must carry the first
// rep's fingerprint: the virtual side of a seeded run does not vary.
func summarize(def *workloadDef, reps []repResult) *summary {
	first := reps[0]
	s := &summary{Workload: def.name, Reps: len(reps), LatSamples: first.samples, Failures: first.failures,
		Fingerprint: formatFingerprint(first.fingerprint), reps: reps}
	var rate, cpu, allocs, setup []float64
	for i, r := range reps {
		s.Attempted += r.attempted
		s.Failed += r.failed
		s.FirstFailed += r.firstFailed
		s.Violations = append(s.Violations, r.violations...)
		if r.fingerprint != first.fingerprint {
			s.Violations = append(s.Violations, fmt.Sprintf("rep %d fingerprint %016x differs from rep 0's %016x: the virtual run is not deterministic", i, r.fingerprint, first.fingerprint))
		}
		n := float64(max(r.attempted, 1))
		rate = append(rate, n/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu)/float64(time.Microsecond)/n)
		allocs = append(allocs, float64(r.mallocs)/n)
		// One sample per rep — the median of its set-ups — so that the
		// quartiles say how far the reps disagree, like the other host
		// metrics', and not how far single sub-millisecond set-ups do.
		per := make([]float64, len(r.setups))
		for j, d := range r.setups {
			per[j] = d.Seconds()
		}
		_, med, _ := quartiles(per)
		setup = append(setup, med)
	}
	s.EndToEnd = map[string]stat{
		"lat_p50_ms":          exact(ms(first.p50), "ms"),
		"lat_p99_ms":          exact(ms(first.p99), "ms"),
		"sim_req_per_s":       median(rate, "1/s"),
		"host_cpu_us_per_req": median(cpu, "us"),
		"host_allocs_per_req": median(allocs, "count"),
		"setup_s":             median(setup, "s"),
	}
	return s
}

// runSet runs the untraced reps of the given workloads, interleaved
// round-robin so drift on the host lands on all of them alike. With
// seconds > 0 each workload keeps taking reps until its timed sections
// add up to that long (never fewer than minReps); otherwise it takes
// exactly reps.
func runSet(defs []*workloadDef, seed int64, scale, reps int, seconds float64, progress func(string)) []*summary {
	all := make([][]repResult, len(defs))
	timed := make([]time.Duration, len(defs))
	for round := 0; ; round++ {
		ran := false
		for i, def := range defs {
			done := round >= reps
			if seconds > 0 {
				done = round >= minReps && timed[i].Seconds() >= seconds
			}
			if done {
				continue
			}
			r := runRep(def, seed, scale, nil)
			all[i] = append(all[i], r)
			timed[i] += r.wall
			ran = true
			if progress != nil {
				progress(fmt.Sprintf("%s rep %d: %d requests in %.3fs (set-up %.4fs)", def.name, round, r.attempted, r.wall.Seconds(), r.setups[0].Seconds()))
			}
		}
		if !ran {
			break
		}
	}
	out := make([]*summary, len(defs))
	for i, def := range defs {
		out[i] = summarize(def, all[i])
	}
	return out
}

// extraSetups is how many more worlds each untraced rep builds and
// drops, only to time their set-up: a set-up takes 0.5-8 ms, and a
// median of a handful of sub-millisecond samples moves by tens of
// percent from run to run. Each rep reports the median of its nine.
const extraSetups = 8

// minReps is the floor on reps per workload when the run is sized by
// time: the sizing prototype's medians stopped repeating below seven.
const minReps = 7
