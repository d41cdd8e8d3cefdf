// Command bench is the repository benchmark: four seeded workloads
// measured on two clocks — virtual time (what the model predicts) and
// host time (how fast the simulator runs) — with per-layer counts,
// probes and a traced run. It drives the system only through exported
// functions of internal/*, the way internal/experiments does.
//
//	go -C bench run . [-seed n] [-workload name] [-reps n] [-out dir]
//	go -C bench run . -aa
//	go -C bench run . -compare old.json new.json
//
// BENCHMARK.json at the repository root declares the command the
// pipeline runs (bench/run.sh), which adds the pipeline's own flags:
// -workload w -seed n -seconds s -trace 0|1, one workload per process,
// the result as one JSON object on the last line of standard output.
// README.md in this directory says why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"jitsu/internal/obs"
)

// gomaxprocs is fixed and recorded. The simulation is one goroutine; a
// second P would only run the collector's workers, and on a shared
// two-vCPU machine that makes the wall clock depend on whether the
// neighbours leave the second vCPU free: with one busy spinner beside
// it cold_storm lost 27 % of its rate at 2 Ps and 8 % at 1, warm_fetch
// 21 % and 7 %. At 1 P the run needs one core, whichever is free.
const gomaxprocs = 1

func main() {
	seed := flag.Int64("seed", 1, "workload seed: the only input of every workload")
	workload := flag.String("workload", "", "run one workload (default: all four)")
	reps := flag.Int("reps", 9, "untraced reps per workload (not below 7 for numbers you mean to compare)")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for results.json and trace-<workload>.json")
	aa := flag.Bool("aa", false, "run two full sets back to back and hold them to each metric's bound")
	compare := flag.Bool("compare", false, "compare two results.json files: -compare old.json new.json")
	seconds := flag.Float64("seconds", 0, "pipeline: size the run by timed seconds per workload instead of -reps")
	trace := flag.Int("trace", -1, "pipeline: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs)

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare old.json new.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}
	defs := make([]*workloadDef, 0, len(workloads))
	for i := range workloads {
		if *workload == "" || workloads[i].name == *workload {
			defs = append(defs, &workloads[i])
		}
	}
	if len(defs) == 0 {
		names := make([]string, len(workloads))
		for i := range workloads {
			names[i] = workloads[i].name
		}
		fatal(2, "unknown workload %q (have %s)", *workload, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	progress := func(line string) { fmt.Fprintln(os.Stderr, line) }

	switch {
	case *trace >= 0:
		if len(defs) != 1 {
			fatal(2, "-trace needs -workload")
		}
		os.Exit(pipelineRun(defs[0], *seed, *seconds, *reps, *trace == 1, *out, progress))
	case *aa:
		os.Exit(aaRun(defs, *seed, *reps, progress))
	default:
		os.Exit(fullRun(defs, *seed, *reps, *seconds, *out, progress))
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// environment is the recorded host line.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readEnvironment() environment {
	env := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// results is the on-disk summary of one invocation (results.json).
type results struct {
	Env       environment       `json:"env"`
	Seed      int64             `json:"seed"`
	Workloads []*workloadResult `json:"workloads"`
}

// workloadResult is one workload's end-to-end summary plus, when a
// traced run was made, its per-layer metrics.
type workloadResult struct {
	summary
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Ladder    []rung             `json:"ladder,omitempty"`
	SelfNS    map[string]int64   `json:"self_ns_by_layer,omitempty"`
	Estimated map[string]float64 `json:"estimated_host_share,omitempty"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// fullRun is the default mode: every metric of every workload, printed
// by name with its unit, and written to the output directory.
func fullRun(defs []*workloadDef, seed int64, reps int, seconds float64, out string, progress func(string)) int {
	env := readEnvironment()
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s cpu=%q seed=%d\n", env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.CPUModel, seed)
	sums := runSet(defs, seed, 1, reps, seconds, progress)
	probes := runProbes(probeFloor)
	res := results{Env: env, Seed: seed}
	bad := 0
	for i, def := range defs {
		wr, violations := tracedRun(def, seed, 1, sums[i], tracedPairs, probes, out)
		res.Workloads = append(res.Workloads, wr)
		printWorkload(os.Stdout, def, wr)
		for _, f := range wr.Failures {
			fmt.Printf("FAILED %s: %s\n", def.name, f)
		}
		for _, v := range violations {
			fmt.Printf("VIOLATION %s: %s\n", def.name, v)
			bad++
		}
	}
	if err := writeJSON(filepath.Join(out, "results.json"), res); err != nil {
		fatal(1, "%v", err)
	}
	if bad > 0 {
		fmt.Printf("FAIL: %d check(s) violated\n", bad)
		return 1
	}
	fmt.Println("ok: every output check and fingerprint check passed")
	return 0
}

// tracedRun runs def with span recording on, pairs times, each paired
// with a fresh untraced rep so the overhead is taken between runs made
// under the same host conditions. The untraced half holds an unattached
// flight recorder of the same size: the ring is tens of MiB of live
// heap, which by itself spaces the collector's cycles out and would
// make tracing look faster than not tracing. tracedRun then writes the
// span file and folds everything into the workload's result. It returns
// every violation of the untraced reps and the traced ones.
func tracedRun(def *workloadDef, seed int64, scale int, sum *summary, pairs int, probes map[string]float64, out string) (*workloadResult, []string) {
	violations := append([]string(nil), sum.Violations...)
	untraced := sum.reps
	var plain, withSpans []float64
	var traced repResult
	for i := 0; i < pairs; i++ {
		ballast := obs.NewTracer(tracerRing)
		u := runRep(def, seed, scale, nil)
		runtime.KeepAlive(ballast)
		plain = append(plain, u.wall.Seconds())
		traced = runRep(def, seed, scale, &recorder{})
		withSpans = append(withSpans, traced.wall.Seconds())
		violations = append(violations, traced.violations...)
		if got := formatFingerprint(traced.fingerprint); got != sum.Fingerprint {
			violations = append(violations, fmt.Sprintf("traced fingerprint %s differs from the untraced %s: the recorder is not passive", got, sum.Fingerprint))
		}
	}
	_, base, _ := quartiles(plain)
	_, with, _ := quartiles(withSpans)
	overhead := ratio(with-base, base)

	var lad *ladder
	if def.name == "cold_storm" {
		lad = runLadder(seed, scale)
		violations = append(violations, lad.violations...)
	}
	wr := &workloadResult{summary: *sum, SelfNS: map[string]int64{}}
	wr.PerLayer = layerMetrics(&traced, untraced, overhead, probes, lad)
	if lad != nil {
		wr.Ladder = lad.rungs
	}
	for layer, d := range traced.rec.selfTimes() {
		wr.SelfNS[layer] = int64(d)
	}
	wr.Estimated = estimatedShares(&traced, untraced, probes)
	if out != "" {
		path := filepath.Join(out, "trace-"+def.name+".json")
		if err := traced.rec.write(path, def.name, seed, traced.counts); err != nil {
			violations = append(violations, fmt.Sprintf("write %s: %v", path, err))
		}
	}
	return wr, violations
}

// pipelineRun is one workload in one process, as BENCHMARK.json's
// command runs it: the last line of standard output is the result.
func pipelineRun(def *workloadDef, seed int64, seconds float64, reps int, traced bool, out string, progress func(string)) int {
	metrics := map[string]stat{}
	var violations []string
	var sum *summary
	if !traced {
		sum = runSet([]*workloadDef{def}, seed, 1, reps, seconds, progress)[0]
		violations = sum.Violations
		for _, d := range endToEnd {
			metrics[d.Name] = sum.EndToEnd[d.Name]
		}
	} else {
		// The traced run needs only enough untraced reps to anchor the
		// host-side layer figures; the end-to-end numbers come from the
		// -trace 0 runs.
		sum = runSet([]*workloadDef{def}, seed, 1, tracedPairs, 0, progress)[0]
		wr, v := tracedRun(def, seed, 1, sum, tracedPairs, runProbes(probeFloor), out)
		violations = v
		for _, d := range perLayer {
			metrics[d.Name] = exact(wr.PerLayer[d.Name], d.Unit)
		}
		if err := writeJSON(filepath.Join(out, "results-"+def.name+".json"), results{Seed: seed, Workloads: []*workloadResult{wr}}); err != nil {
			violations = append(violations, err.Error())
		}
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "VIOLATION %s: %s\n", def.name, v)
	}
	for _, f := range sum.Failures {
		fmt.Fprintf(os.Stderr, "FAILED %s: %s\n", def.name, f)
	}
	correct := len(violations) == 0
	fmt.Println(string(resultLine(correct, sum.Attempted, sum.Failed, metrics)))
	if !correct {
		return 1
	}
	return 0
}

// resultLine is the pipeline's result object: exactly the keys correct,
// attempted, failed and metrics, each metric a value with its unit.
func resultLine(correct bool, attempted, failed int, metrics map[string]stat) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for name, s := range metrics {
		line.Metrics[name] = value{Value: s.Value, Unit: s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(1, "%v", err)
	}
	return data
}

// tracedPairs is how many untraced/traced pairs a pipeline traced run
// makes: the overhead is a difference of two host times, and a median
// of three pairs steadies it.
const tracedPairs = 3
