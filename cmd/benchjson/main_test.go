package main

import (
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
	slow := Doc{Benches: []Bench{doc.Benches[0], {Layer: "xenstore", Name: "BenchmarkRead", Metrics: map[string]float64{"ns/op": 90}}}}
	if report, failures := gate(doc, slow, 0.25, nil); failures != 1 || !strings.Contains(report, "REGRESSED") {
		t.Fatalf("failures = %d, want the xenstore layer's regression alone:\n%s", failures, report)
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	baseline := Doc{Benches: []Bench{bench("BenchmarkA", 100, 3)}}
	current := Doc{Benches: []Bench{bench("BenchmarkA", 120, 3)}}
	if _, failures := gate(baseline, current, 0.25, nil); failures != 0 {
		t.Fatalf("failures = %d, want 0 for +20%% under 25%% tolerance", failures)
	}
}

func TestGateFailsOnNsRegression(t *testing.T) {
	baseline := Doc{Benches: []Bench{bench("BenchmarkA", 100, 3)}}
	current := Doc{Benches: []Bench{bench("BenchmarkA", 130, 3)}}
	report, failures := gate(baseline, current, 0.25, nil)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 for +30%%:\n%s", failures, report)
	}
	if !strings.Contains(report, "REGRESSED") {
		t.Fatalf("report missing REGRESSED:\n%s", report)
	}
}

func TestGateFailsWhenZeroAllocPathAllocates(t *testing.T) {
	// Faster but allocating: the zero-alloc contract is absolute.
	baseline := Doc{Benches: []Bench{bench("BenchmarkDNSServe", 100, 0)}}
	current := Doc{Benches: []Bench{bench("BenchmarkDNSServe", 50, 1)}}
	report, failures := gate(baseline, current, 0.25, nil)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1:\n%s", failures, report)
	}
	if !strings.Contains(report, "ALLOCS") {
		t.Fatalf("report missing ALLOCS:\n%s", report)
	}
}

func TestGateWaivesAcceptedRegression(t *testing.T) {
	baseline := Doc{Benches: []Bench{bench("BenchmarkA", 100, 3), bench("BenchmarkB", 100, 3)}}
	current := Doc{Benches: []Bench{bench("BenchmarkA", 200, 3), bench("BenchmarkB", 130, 3)}}
	report, failures := gate(baseline, current, 0.25, acceptSet{"BenchmarkA": true})
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 (only the unwaived bench):\n%s", failures, report)
	}
	if !strings.Contains(report, "waived") {
		t.Fatalf("report missing waived line:\n%s", report)
	}
}

func TestGateAcceptDoesNotWaiveAllocs(t *testing.T) {
	// The waiver buys a slower run, never a zero-alloc path allocating.
	baseline := Doc{Benches: []Bench{bench("BenchmarkA", 100, 0)}}
	current := Doc{Benches: []Bench{bench("BenchmarkA", 200, 1)}}
	report, failures := gate(baseline, current, 0.25, acceptSet{"BenchmarkA": true})
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 for the alloc contract:\n%s", failures, report)
	}
	if !strings.Contains(report, "ALLOCS") {
		t.Fatalf("report missing ALLOCS:\n%s", report)
	}
}

func TestGateIgnoresNewBenchmarks(t *testing.T) {
	baseline := Doc{Benches: []Bench{bench("BenchmarkA", 100, 0)}}
	current := Doc{Benches: []Bench{bench("BenchmarkA", 90, 0), bench("BenchmarkNew", 1e9, 50)}}
	report, failures := gate(baseline, current, 0.25, nil)
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
	report, failures := gate(baseline, current, 0.25, nil)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 for the vanished benchmark:\n%s", failures, report)
	}
	if !strings.Contains(report, "GONE") {
		t.Fatalf("report missing GONE:\n%s", report)
	}
	if _, failures := gate(baseline, Doc{}, 0.25, nil); failures != 2 {
		t.Fatalf("empty run: failures = %d, want 2", failures)
	}
}
