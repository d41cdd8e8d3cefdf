package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// smokeScale shrinks every workload fifty-fold: the same worlds, checks
// and metric plumbing in a fraction of a second each.
const smokeScale = 50

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// registryJSON renders the code's registry in BENCHMARK.json's shape.
func registryJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 20,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	return b
}

// TestBenchmarkJSONMatchesRegistry holds BENCHMARK.json and the code's
// metric registry to the same names, units, directions and bounds.
// UPDATE_BENCHMARK_JSON=1 rewrites the file from the registry.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := registryJSON()
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json and the registry differ (UPDATE_BENCHMARK_JSON=1 go test rewrites it)\n got %+v\nwant %+v", got, want)
	}
}

// TestRegistryMeetsContract checks the limits the pipeline refuses a
// BENCHMARK.json outside of.
func TestRegistryMeetsContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed syntax", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, d := range endToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the allowed syntax", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
}

// smoke runs every workload once at smokeScale — two untraced reps, one
// traced pair, the ladder, the probes at a 1 ms floor — and shares the
// result between the tests below.
var smoke = sync.OnceValue(func() map[string]smokeRun {
	probes := runProbes(time.Millisecond)
	out := map[string]smokeRun{}
	for i := range workloads {
		def := &workloads[i]
		sum := runSet([]*workloadDef{def}, 7, smokeScale, 2, 0, nil)[0]
		wr, violations := tracedRun(def, 7, smokeScale, sum, 1, probes, "")
		out[def.name] = smokeRun{wr: wr, violations: violations}
	}
	return out
})

type smokeRun struct {
	wr         *workloadResult
	violations []string
}

func TestEveryDeclaredMetricIsEmittedOnceAndFinite(t *testing.T) {
	for name, run := range smoke() {
		for _, v := range run.violations {
			t.Errorf("%s: output check violated: %s", name, v)
		}
		if run.wr.Failed != 0 {
			t.Errorf("%s: %d of %d requests failed", name, run.wr.Failed, run.wr.Attempted)
		}
		if len(run.wr.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", name, len(run.wr.EndToEnd), len(endToEnd))
		}
		for _, d := range endToEnd {
			s, ok := run.wr.EndToEnd[d.Name]
			if !ok {
				t.Errorf("%s: %s not emitted", name, d.Name)
			} else if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value <= 0 {
				t.Errorf("%s: %s = %v, want a finite positive number", name, d.Name, s.Value)
			} else if s.Unit != d.Unit {
				t.Errorf("%s: %s in %q, declared in %q", name, d.Name, s.Unit, d.Unit)
			}
		}
		if len(run.wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", name, len(run.wr.PerLayer), len(perLayer))
		}
		for _, d := range perLayer {
			v, ok := run.wr.PerLayer[d.Name]
			if !ok {
				t.Errorf("%s: %s not emitted", name, d.Name)
			} else if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", name, d.Name, v)
			}
		}
	}
}

// TestEachWorkloadStressesItsLayers: the layer a workload exists for
// carries work on it, and the layer it bypasses carries none.
func TestEachWorkloadStressesItsLayers(t *testing.T) {
	layer := func(w, m string) float64 { return smoke()[w].wr.PerLayer[m] }
	if v := layer("warm_fetch", "xenstore.commits_per_req"); v != 0 {
		t.Errorf("warm_fetch commits %v XenStore transactions per fetch, want 0", v)
	}
	if v := layer("cold_storm", "xenstore.commits_per_req"); v <= 3 {
		t.Errorf("cold_storm commits %v XenStore transactions per fetch, want > 3", v)
	}
	if v := layer("cold_storm", "core.cold_start_ratio"); v < 0.85 {
		t.Errorf("cold_storm cold-start ratio %v, want >= 0.85", v)
	}
	if v := layer("warm_fetch", "core.cold_start_ratio"); v != 0 {
		t.Errorf("warm_fetch cold-start ratio %v, want 0", v)
	}
	if v := layer("cold_storm", "sustained_rate_rps"); v <= 0 {
		t.Errorf("cold_storm sustains %v req/s, want at least the first rung", v)
	}
	for _, w := range workloads {
		if got, want := layer(w.name, "cluster.root_lookups_per_req") > 0, w.name == "fed_skew"; got != want {
			t.Errorf("%s: root lookups present = %v, want %v", w.name, got, want)
		}
		if got, want := layer(w.name, "wire.frames_per_verb") > 0, w.name == "operator_wire"; got != want {
			t.Errorf("%s: wire frames present = %v, want %v", w.name, got, want)
		}
	}
	if v := layer("operator_wire", "wire.unauthorized"); v == 0 {
		t.Error("operator_wire: the viewer's Migrate was never refused")
	}
	if v := layer("fed_skew", "cluster.cross_migrations"); v == 0 {
		t.Error("fed_skew: the skew shed nothing across clusters")
	}
}

func TestFingerprintFollowsTheSeed(t *testing.T) {
	for i := range workloads {
		def := &workloads[i]
		a := runRep(def, 7, smokeScale, nil)
		b := runRep(def, 8, smokeScale, nil)
		if got := smoke()[def.name].wr.Fingerprint; got != formatFingerprint(a.fingerprint) {
			t.Errorf("%s: seed 7 fingerprints %s and %s differ between runs", def.name, got, formatFingerprint(a.fingerprint))
		}
		if a.fingerprint == b.fingerprint {
			t.Errorf("%s: seeds 7 and 8 share fingerprint %016x", def.name, a.fingerprint)
		}
	}
}

// TestSpansAreAForest: one root per request id, every child's parent in
// the file and around it, and the file survives a round trip.
func TestSpansAreAForest(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		def := &workloads[i]
		r := runRep(def, 7, smokeScale, &recorder{})
		path := filepath.Join(dir, def.name+".json")
		if err := r.rec.write(path, def.name, 7, r.counts); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if len(tf.Spans) == 0 {
			t.Fatalf("%s: no spans recorded", def.name)
		}
		roots := map[int]int{}
		for i, s := range tf.Spans {
			if s.ID != i {
				t.Fatalf("%s: span %d carries id %d", def.name, i, s.ID)
			}
			if s.End < s.Start {
				t.Errorf("%s: span %d (%s) never ended", def.name, i, s.Name)
			}
			if s.Parent < 0 {
				roots[s.Req]++
				continue
			}
			if s.Parent >= len(tf.Spans) {
				t.Fatalf("%s: span %d names parent %d, outside the file", def.name, i, s.Parent)
			}
			p := tf.Spans[s.Parent]
			if p.Req != s.Req {
				t.Errorf("%s: span %d of request %d hangs under request %d", def.name, i, s.Req, p.Req)
			}
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", def.name, i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		if len(roots) != r.attempted {
			t.Errorf("%s: %d request ids have a root, %d requests attempted", def.name, len(roots), r.attempted)
		}
		for req, n := range roots {
			if n != 1 {
				t.Errorf("%s: request %d has %d roots", def.name, req, n)
			}
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	rec := &recorder{}
	root := rec.begin(1, -1, "bench", "fetch", "svc", 0)
	rec.child(root, "dns", "a", 10, 30)
	rec.child(root, "xen", "b", 20, 50) // overlaps a by 10
	rec.end(root, 100)
	self := rec.selfTimes()
	if got := self["bench"]; got != 60 {
		t.Errorf("root self time %d, want 100 - |[10,50]| = 60", got)
	}
	if self["dns"] != 20 || self["xen"] != 30 {
		t.Errorf("leaf self times %v", self)
	}
}

func TestVerdicts(t *testing.T) {
	lowerIsBetter := metricDef{Name: "host_cpu_us_per_req", Better: "lower", Bound: 0.10}
	higherIsBetter := metricDef{Name: "sim_req_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) stat { return stat{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	noisy := func(v float64) stat { return stat{Value: v, Q1: v * 0.9, Q3: v * 1.1} }
	cases := []struct {
		def        metricDef
		base, next stat
		want       string
	}{
		{lowerIsBetter, steady(100), steady(104), verdictWithin},
		{lowerIsBetter, steady(100), steady(120), verdictRegressed},
		{lowerIsBetter, steady(100), steady(80), verdictImproved},
		{higherIsBetter, steady(100), steady(80), verdictRegressed},
		{higherIsBetter, steady(100), steady(120), verdictImproved},
		{higherIsBetter, steady(100), steady(95), verdictWithin},
		{lowerIsBetter, noisy(100), steady(120), verdictUnresolved},
		{lowerIsBetter, steady(100), noisy(80), verdictUnresolved},
		{lowerIsBetter, exact(100, "ms"), exact(100, "ms"), verdictWithin},
		{lowerIsBetter, exact(0, "count"), exact(1, "count"), verdictRegressed},
	}
	for _, c := range cases {
		if got := verdict(c.def, c.base, c.next); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.def.Name, c.base.Value, c.next.Value, got, c.want)
		}
	}
}

// TestResultsFileRoundTrips: what a full run writes, -compare can read.
func TestResultsFileRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	want := results{Seed: 7, Workloads: []*workloadResult{smoke()["warm_fetch"].wr}}
	if err := writeJSON(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := loadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Workloads) != 1 || got.Workloads[0].Workload != "warm_fetch" ||
		!reflect.DeepEqual(got.Workloads[0].EndToEnd, want.Workloads[0].EndToEnd) {
		t.Errorf("results.json did not round-trip: %+v", got.Workloads)
	}
}

func TestCompareResultsCountsRegressions(t *testing.T) {
	mk := func(cpu float64, failed int) *results {
		e2e := map[string]stat{}
		for _, d := range endToEnd {
			e2e[d.Name] = exact(10, d.Unit)
		}
		e2e["host_cpu_us_per_req"] = exact(cpu, "us")
		return &results{Seed: 1, Workloads: []*workloadResult{{summary: summary{Workload: "cold_storm", Attempted: 100, Failed: failed, EndToEnd: e2e}}}}
	}
	var buf bytes.Buffer
	if n := compareResults(&buf, mk(100, 0), mk(105, 0)); n != 0 {
		t.Errorf("a 5 %% move inside a 10 %% bound counted %d regressions\n%s", n, buf.String())
	}
	if n := compareResults(&buf, mk(100, 0), mk(130, 0)); n != 1 {
		t.Errorf("a 30 %% move counted %d regressions, want 1", n)
	}
	if n := compareResults(&buf, mk(100, 0), mk(100, 3)); n != 1 {
		t.Errorf("new failures counted %d regressions, want 1", n)
	}
	if !strings.Contains(buf.String(), "host_cpu_us_per_req") {
		t.Error("the table names no metric")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	line := resultLine(true, 10, 0, map[string]stat{"setup_s": exact(0.5, "s")})
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(got) != 4 || bytes.Contains(line, []byte("\n")) {
		t.Errorf("result line is not one object of four keys: %s", line)
	}
	if want := `"setup_s":{"value":0.5,"unit":"s"}`; !bytes.Contains(line, []byte(want)) {
		t.Errorf("result line %s lacks %s", line, want)
	}
}
