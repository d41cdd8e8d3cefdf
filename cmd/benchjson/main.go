// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document, so each PR can record its perf trajectory
// (BENCH_<pr>.json) and later sessions can diff numbers mechanically.
//
//	go test -bench=. -benchmem -run '^$' . | go run ./cmd/benchjson > BENCH_pr3.json
//
// With -compare it becomes the CI bench gate: the new numbers (a JSON
// file argument, or bench text on stdin) are checked against a
// committed baseline, and the command exits non-zero when any tracked
// benchmark regresses more than -tolerance on ns/op or gains
// allocations on a path the baseline records as allocation-free.
//
//	go test -bench=. -benchmem -run '^$' . | go run ./cmd/benchjson -compare BENCH_pr2.json -tolerance 0.25
//	go run ./cmd/benchjson -compare BENCH_pr2.json -tolerance 0.25 bench-ci.json
//
// A PR that deliberately makes a benchmark's workload heavier (an
// experiment gaining fidelity, say) names it with -accept: the ns/op
// comparison for that benchmark downgrades to a warning for this run
// only, the PR's committed record re-baselines it, and the zero-alloc
// contract still applies — a waiver buys slower, never allocating.
//
//	go run ./cmd/benchjson -compare BENCH_pr8.json -accept BenchmarkFederationSkew bench-ci.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Bench is one benchmark line: a name, an iteration count, and the
// value/unit pairs go test printed ("ns/op", "allocs/op", custom
// ReportMetric units like "cluster-p95-ms"). Layer is the internal
// package the bench lives in ("xenstore"), empty for the root package's
// whole-experiment and hot-path benches.
type Bench struct {
	Layer      string             `json:"layer,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// id names a bench in the gate's report and in -accept. Two layers may
// each have a BenchmarkRead, so the layer is part of it.
func (b Bench) id() string {
	if b.Layer == "" {
		return b.Name
	}
	return b.Layer + "/" + b.Name
}

// Doc is the whole report.
type Doc struct {
	Goos    string  `json:"goos,omitempty"`
	Goarch  string  `json:"goarch,omitempty"`
	Pkg     string  `json:"pkg,omitempty"`
	CPU     string  `json:"cpu,omitempty"`
	Benches []Bench `json:"benches"`
}

func main() {
	compare := flag.String("compare", "", "baseline BENCH json to gate against (exit 1 on regression)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression in -compare mode")
	accept := make(acceptSet)
	flag.Var(accept, "accept", "benchmark whose ns/op regression is waived this run (repeatable; workload deliberately changed)")
	flag.Parse()

	if *compare == "" {
		doc, err := parseDoc(os.Stdin)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
		return
	}

	baseline, err := loadDoc(*compare)
	if err != nil {
		fatal(err)
	}
	var current Doc
	if arg := flag.Arg(0); arg != "" {
		current, err = loadDoc(arg)
	} else {
		current, err = parseDoc(os.Stdin)
	}
	if err != nil {
		fatal(err)
	}

	report, failures := gate(baseline, current, *tolerance, accept)
	fmt.Print(report)
	if failures > 0 {
		fmt.Printf("benchjson: FAIL — %d benchmark(s) regressed beyond %.0f%%\n", failures, *tolerance*100)
		os.Exit(1)
	}
	fmt.Println("benchjson: bench gate passed")
}

// acceptSet is the repeatable -accept flag: benchmark names whose
// ns/op regression is expected because this PR changed their workload.
type acceptSet map[string]bool

func (a acceptSet) String() string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	return strings.Join(names, ",")
}

func (a acceptSet) Set(v string) error {
	a[v] = true
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(2)
}

// loadDoc reads a previously recorded JSON document.
func loadDoc(path string) (Doc, error) {
	var doc Doc
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// parseDoc converts `go test -bench` text into a Doc.
func parseDoc(r io.Reader) (Doc, error) {
	var doc Doc
	layer := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			// One header per package in a multi-package run: the doc keeps
			// the first, each bench the layer of the one it follows.
			pkg := strings.TrimPrefix(line, "pkg: ")
			if doc.Pkg == "" {
				doc.Pkg = pkg
			}
			layer = ""
			if i := strings.Index(pkg, "/internal/"); i >= 0 {
				layer = pkg[i+len("/internal/"):]
			}
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBench(line); ok {
				b.Layer = layer
				doc.Benches = append(doc.Benches, b)
			}
		}
	}
	return doc, sc.Err()
}

// gate compares current against baseline: benchmarks present in both
// are checked for ns/op regressions beyond tolerance and for
// allocations appearing on paths the baseline holds at zero allocs/op.
// A name in accept waives the ns/op check only — its regression prints
// as "waived" and does not fail the run.
// New benchmarks (no baseline entry) pass — the trajectory grows — but
// a baseline benchmark missing from the current run fails: a deleted or
// renamed benchmark silently stops enforcing its contract otherwise,
// and an empty run (a truncated record from a failed bench pipeline)
// must never pass vacuously.
func gate(baseline, current Doc, tolerance float64, accept acceptSet) (report string, failures int) {
	base := make(map[string]Bench, len(baseline.Benches))
	for _, b := range baseline.Benches {
		base[b.id()] = b
	}
	var sb strings.Builder
	seen := make(map[string]bool, len(current.Benches))
	for _, b := range current.Benches {
		seen[b.id()] = true
		old, ok := base[b.id()]
		if !ok {
			fmt.Fprintf(&sb, "  new    %-40s ns/op=%.0f (no baseline)\n", b.id(), b.Metrics["ns/op"])
			continue
		}
		oldNs, newNs := old.Metrics["ns/op"], b.Metrics["ns/op"]
		status := "ok"
		if oldNs > 0 && newNs > oldNs*(1+tolerance) {
			if accept[b.id()] {
				status = "waived"
			} else {
				status = "REGRESSED"
				failures++
			}
		}
		oldAllocs, hasOld := old.Metrics["allocs/op"]
		newAllocs, hasNew := b.Metrics["allocs/op"]
		if hasOld && hasNew && oldAllocs == 0 && newAllocs > 0 {
			// The zero-alloc contract is absolute: one allocation on a
			// path recorded allocation-free is a regression at any speed.
			status = "ALLOCS"
			failures++
		}
		fmt.Fprintf(&sb, "  %-6s %-40s ns/op %.0f -> %.0f (%+.1f%%), allocs/op %g -> %g\n",
			status, b.id(), oldNs, newNs, pctDelta(oldNs, newNs), oldAllocs, newAllocs)
	}
	for _, b := range baseline.Benches {
		if !seen[b.id()] {
			fmt.Fprintf(&sb, "  GONE   %-40s tracked by the baseline but absent from this run\n", b.id())
			failures++
		}
	}
	return sb.String(), failures
}

func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// parseBench splits "BenchmarkName-8  123  4.5 ns/op  0 B/op ..." into
// its name, iteration count, and value/unit pairs.
func parseBench(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Bench{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so names are stable across machines.
	// benchjson parses bench text on the machine that produced it (the
	// Makefile pipes go test straight in), so the suffix to strip is
	// this process's GOMAXPROCS — and only that: a blind numeric strip
	// would eat a meaningful trailing "-4" from a sub-benchmark name
	// like "/boards-4" when go test omits the suffix (GOMAXPROCS=1).
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n == runtime.GOMAXPROCS(0) && n > 1 {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
