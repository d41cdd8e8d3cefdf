package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func bench(name string, ns, allocs float64) Bench {
	return Bench{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

// procSuffix renders the -GOMAXPROCS suffix go test would print on
// this machine ("" when GOMAXPROCS is 1, exactly like go test).
func procSuffix() string {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return fmt.Sprintf("-%d", n)
	}
	return ""
}

func TestParseBenchStripsProcSuffix(t *testing.T) {
	b, ok := parseBench("BenchmarkDNSServe" + procSuffix() + "   \t 20000000 \t 59.0 ns/op \t 0 B/op \t 0 allocs/op")
	if !ok || b.Name != "BenchmarkDNSServe" {
		t.Fatalf("parse = %+v ok=%v", b, ok)
	}
	if b.Metrics["ns/op"] != 59 || b.Metrics["allocs/op"] != 0 {
		t.Fatalf("metrics = %v", b.Metrics)
	}
}

func TestParseBenchKeepsMeaningfulTrailingNumber(t *testing.T) {
	// A sub-benchmark variant like "/boards-4" must survive: only the
	// machine's own GOMAXPROCS suffix is stripped.
	b, ok := parseBench("BenchmarkScaling/boards-4" + procSuffix() + " 10 100 ns/op")
	if !ok || b.Name != "BenchmarkScaling/boards-4" {
		t.Fatalf("parse = %+v ok=%v, want the -4 variant kept", b, ok)
	}
}

func TestParseDocReadsBenchText(t *testing.T) {
	doc, err := parseDoc(strings.NewReader(
		"goos: linux\ngoarch: amd64\npkg: jitsu\ncpu: test\n" +
			"BenchmarkA" + procSuffix() + " 10 100 ns/op 5 allocs/op\n" +
			"BenchmarkB" + procSuffix() + " 10 200 ns/op 0.5 custom-ms\n" +
			"not a bench line\n"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || len(doc.Benches) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Benches[0].Name != "BenchmarkA" {
		t.Fatalf("name = %q, want suffix stripped", doc.Benches[0].Name)
	}
	if doc.Benches[1].Metrics["custom-ms"] != 0.5 {
		t.Fatalf("custom metric lost: %v", doc.Benches[1].Metrics)
	}
}

func TestParseDocFilesBenchesUnderTheirLayer(t *testing.T) {
	// `make bench` runs the root package and the layers' own benches in
	// one go test: each pkg header files what follows under its layer.
	doc, err := parseDoc(strings.NewReader(
		"pkg: jitsu\nBenchmarkRead" + procSuffix() + " 10 100 ns/op\nPASS\nok  \tjitsu\t1s\n" +
			"pkg: jitsu/internal/xenstore\nBenchmarkRead" + procSuffix() + " 10 50 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Pkg != "jitsu" || len(doc.Benches) != 2 || doc.Benches[0].Layer != "" || doc.Benches[1].Layer != "xenstore" {
		t.Fatalf("doc = %+v", doc)
	}
	// Same name, different layers: the gate must not confuse them.
	worse := Doc{Benches: []Bench{doc.Benches[0], {Layer: "xenstore", Name: "BenchmarkRead", Metrics: map[string]float64{"ns/op": 50, "allocs/op": 1}}}}
	if report, failures := gate(doc, worse); failures != 1 || !strings.Contains(report, "ALLOCS") {
		t.Fatalf("failures = %d, want the xenstore layer's allocation alone:\n%s", failures, report)
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	// The experiment benches' allocs/op wander by a few in a hundred
	// thousand; half a percent is the line.
	baseline := Doc{Benches: []Bench{bench("BenchmarkA", 100, 143334)}}
	if _, failures := gate(baseline, Doc{Benches: []Bench{bench("BenchmarkA", 100, 143400)}}); failures != 0 {
		t.Fatalf("failures = %d, want 0 for +0.05%% allocs/op", failures)
	}
	report, failures := gate(baseline, Doc{Benches: []Bench{bench("BenchmarkA", 100, 144100)}})
	if failures != 1 || !strings.Contains(report, "ALLOCS") {
		t.Fatalf("failures = %d, want 1 for +0.53%% allocs/op:\n%s", failures, report)
	}
}

func TestGateDoesNotJudgeNsPerOp(t *testing.T) {
	// ns/op follows the machine and the hour: a number recorded on
	// another day says nothing about this build, at any distance.
	baseline := Doc{Benches: []Bench{bench("BenchmarkA", 100, 3)}}
	current := Doc{Benches: []Bench{bench("BenchmarkA", 1000, 3)}}
	report, failures := gate(baseline, current)
	if failures != 0 || !strings.Contains(report, "ns/op 100 -> 1000") {
		t.Fatalf("failures = %d, want 0 with the ns/op pair reported:\n%s", failures, report)
	}
}

func TestGateFailsWhenCustomMetricMoves(t *testing.T) {
	// A virtual-time percentile or a count is the simulation's answer:
	// it repeats exactly or the behaviour changed.
	with := func(p95 float64) Doc {
		b := bench("BenchmarkScaling", 100, 3)
		b.Metrics["cluster-p95-ms"] = p95
		b.Metrics["B/op"] = 1000 * p95 // a host metric beside it moves freely
		return Doc{Benches: []Bench{b}}
	}
	if report, failures := gate(with(12.5), with(12.5)); failures != 0 {
		t.Fatalf("failures = %d, want 0 for an equal metric:\n%s", failures, report)
	}
	report, failures := gate(with(12.5), with(12.6))
	if failures != 1 || !strings.Contains(report, "MOVED") || !strings.Contains(report, "cluster-p95-ms 12.5 -> 12.6") {
		t.Fatalf("failures = %d, want 1 naming the metric:\n%s", failures, report)
	}
	gone := with(12.5)
	delete(gone.Benches[0].Metrics, "cluster-p95-ms")
	if _, failures := gate(with(12.5), gone); failures != 1 {
		t.Fatalf("failures = %d, want 1 for a metric that vanished", failures)
	}
}

func TestGateFailsWhenZeroAllocPathAllocates(t *testing.T) {
	// Faster but allocating: the zero-alloc contract is absolute.
	baseline := Doc{Benches: []Bench{bench("BenchmarkDNSServe", 100, 0)}}
	current := Doc{Benches: []Bench{bench("BenchmarkDNSServe", 50, 1)}}
	report, failures := gate(baseline, current)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1:\n%s", failures, report)
	}
	if !strings.Contains(report, "ALLOCS") {
		t.Fatalf("report missing ALLOCS:\n%s", report)
	}
}

func TestGateIgnoresNewBenchmarks(t *testing.T) {
	baseline := Doc{Benches: []Bench{bench("BenchmarkA", 100, 0)}}
	current := Doc{Benches: []Bench{bench("BenchmarkA", 90, 0), bench("BenchmarkNew", 1e9, 50)}}
	report, failures := gate(baseline, current)
	if failures != 0 {
		t.Fatalf("failures = %d, want 0 — new benches seed the next baseline:\n%s", failures, report)
	}
	if !strings.Contains(report, "new") {
		t.Fatalf("report should note the new benchmark:\n%s", report)
	}
}

func TestGateFailsWhenTrackedBenchmarkVanishes(t *testing.T) {
	// A deleted/renamed benchmark — or an empty doc from a truncated
	// bench pipeline — must not pass the gate vacuously.
	baseline := Doc{Benches: []Bench{bench("BenchmarkA", 100, 0), bench("BenchmarkB", 50, 2)}}
	current := Doc{Benches: []Bench{bench("BenchmarkA", 100, 0)}}
	report, failures := gate(baseline, current)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 for the vanished benchmark:\n%s", failures, report)
	}
	if !strings.Contains(report, "GONE") {
		t.Fatalf("report missing GONE:\n%s", report)
	}
	if _, failures := gate(baseline, Doc{}); failures != 2 {
		t.Fatalf("empty run: failures = %d, want 2", failures)
	}
}

// TestPairsOnCannedRuns reads ten canned pairs (testdata/) and holds
// each end-to-end metric to its line of the report: an exact count that
// fell, an exact latency that did not move and one that rose, a timing
// that wins nine pairs in ten by more than the parent's quartiles, one
// that is better where higher is better, and one whose run-to-run
// spread is wider than its bound.
func TestPairsOnCannedRuns(t *testing.T) {
	var sp spec
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "lat_p50_ms", "unit": "ms", "better": "lower", "bound": 0.03},
		{"name": "lat_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
		{"name": "sim_req_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
		{"name": "host_cpu_us_per_req", "unit": "us", "better": "lower", "bound": 0.25},
		{"name": "host_allocs_per_req", "unit": "count", "better": "lower", "bound": 0.1},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}`), &sp); err != nil {
		t.Fatal(err)
	}
	parent, err := loadRuns("testdata/pairs-parent.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	change, err := loadRuns("testdata/pairs-change.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	report := pairs(sp, parent, change)
	lines := strings.Split(strings.TrimSpace(report), "\n")
	if len(lines) != 7 || lines[0] != "10 pairs; failed requests: parent 0, change 1" {
		t.Fatalf("report:\n%s", report)
	}
	for i, want := range [][]string{
		{"lat_p50_ms", "parent 1.54847 [1.54847, 1.54847]", "wins 0 ties 10 of 10", "equal (exact)"},
		{"lat_p99_ms", "change 2.5 [2.5, 2.5]", "+34.6%", "wins 0 ties 0 of 10", "higher (exact)"},
		{"sim_req_per_s", "parent 36250 [36025, 36475]", "change 46950 [46725, 47175]", "wins 10 ties 0 of 10", "gain"},
		{"host_cpu_us_per_req", "parent 27.15 [26.925, 27.375]", "change 21.35 [21.125, 21.575]", "-21.4%", "wins 9 ties 0 of 10", "gain"},
		{"host_allocs_per_req", "parent 55.2806", "change 36.3037", "wins 10 ties 0 of 10", "lower (exact)"},
		{"setup_s", "wins 4 ties 0 of 10", "unresolved: spread wider than bound"},
	} {
		for _, part := range want {
			if !strings.Contains(lines[i+1], part) {
				t.Errorf("line %d lacks %q:\n%s", i+1, part, lines[i+1])
			}
		}
	}
	if got := pairs(sp, parent, nil); got != "no pairs\n" {
		t.Errorf("no change runs: %q", got)
	}
	// A median worse by more than the bound is said so, not averaged away.
	if got := pairs(sp, change, parent); !strings.Contains(got, "WORSE than bound") {
		t.Errorf("the pair the other way round:\n%s", got)
	}
}
