// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document, so the repository can keep one committed perf
// record (BENCH.json) and later sessions can diff numbers mechanically.
//
//	go test -bench=. -benchmem -run '^$' . | go run ./cmd/benchjson > BENCH.json
//
// With -compare it becomes the CI bench gate: the new numbers (a JSON
// file argument, or bench text on stdin) are checked against the
// committed record, and the command exits non-zero when a benchmark
// moved in what a seeded simulation repeats exactly — a path recorded at
// 0 allocs/op allocates, allocs/op rose by more than half a percent, or
// a custom metric (a virtual-time percentile, a count) changed at all.
// ns/op is printed beside them and gates nothing: it follows the
// machine and the hour, and only paired runs of two builds
// (bench/run.sh) say anything about it.
//
//	go test -bench=. -benchmem -run '^$' . | go run ./cmd/benchjson -compare BENCH.json
//	go run ./cmd/benchjson -compare BENCH.json bench-ci.json
//
// With -pairs it compares two files of bench/run.sh result lines, the
// parent's runs and the change's in pair order (make bench-pair), on
// every end-to-end metric ./BENCHMARK.json declares (pairs.go). Two more
// files, each side's traced runs, add their memory metrics, reported
// without a verdict.
//
//	go run ./cmd/benchjson -pairs parent.jsonl change.jsonl [parent-traced.jsonl change-traced.jsonl]
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
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

// id names a bench in the gate's report. Two layers may
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
	compare := flag.String("compare", "", "recorded BENCH json to gate against (exit 1 on regression)")
	paired := flag.Bool("pairs", false, "compare two files of bench/run.sh result lines: parent.jsonl change.jsonl, then optionally each side's traced runs")
	flag.Parse()

	if *paired {
		var sp spec
		b, err := os.ReadFile("BENCHMARK.json")
		if err == nil {
			err = json.Unmarshal(b, &sp)
		}
		var runs [4][]benchRun
		for i := range min(max(flag.NArg(), 2), len(runs)) {
			var rerr error
			runs[i], rerr = loadRuns(flag.Arg(i))
			err = errors.Join(err, rerr)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Print(pairs(sp, runs[0], runs[1]), memory(runs[2], runs[3]))
		return
	}
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

	report, failures := gate(baseline, current)
	fmt.Print(report)
	if failures > 0 {
		fmt.Printf("benchjson: FAIL — %d benchmark(s) moved in what must repeat\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchjson: bench gate passed")
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

// allocSlack is how far allocs/op may rise before the gate fails. The
// experiment benches repeat to within 0.03 % (a map's growth, the
// runtime's own timers); half a percent is well clear of that and well
// under any real change.
const allocSlack = 0.005

// hostMetric reports the units that follow the machine, not the seed.
func hostMetric(unit string) bool { return unit == "ns/op" || unit == "B/op" || unit == "MB/s" }

// gate compares current against baseline on what a seeded simulation
// repeats: benchmarks present in both fail when a path the baseline
// holds at zero allocs/op allocates, when allocs/op rose beyond
// allocSlack, or when any custom metric differs. ns/op is reported and
// never judged. New benchmarks (no baseline entry) pass — the record
// grows — but a baseline benchmark missing from the current run fails: a
// deleted or renamed benchmark silently stops enforcing its contract
// otherwise, and an empty run (a truncated record from a failed bench
// pipeline) must never pass vacuously.
func gate(baseline, current Doc) (report string, failures int) {
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
		status := "ok"
		oldAllocs, newAllocs := old.Metrics["allocs/op"], b.Metrics["allocs/op"]
		if newAllocs > oldAllocs*(1+allocSlack) {
			// At a baseline of zero this is absolute: one allocation on a
			// path recorded allocation-free is a regression.
			status = "ALLOCS"
		}
		var moved []string
		for unit, was := range old.Metrics {
			if now, has := b.Metrics[unit]; unit != "allocs/op" && !hostMetric(unit) && (!has || now != was) {
				moved = append(moved, fmt.Sprintf("%s %g -> %g", unit, was, now))
			}
		}
		if len(moved) > 0 {
			status = "MOVED"
		}
		if status != "ok" {
			failures++
		}
		sort.Strings(moved)
		fmt.Fprintf(&sb, "  %-6s %-40s allocs/op %g -> %g, ns/op %.0f -> %.0f %s\n", status, b.id(),
			oldAllocs, newAllocs, old.Metrics["ns/op"], b.Metrics["ns/op"], strings.Join(moved, ", "))
	}
	for _, b := range baseline.Benches {
		if !seen[b.id()] {
			fmt.Fprintf(&sb, "  GONE   %-40s tracked by the baseline but absent from this run\n", b.id())
			failures++
		}
	}
	return sb.String(), failures
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
