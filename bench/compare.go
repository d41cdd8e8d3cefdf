package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
)

// Verdicts of one workload x metric comparison.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
	verdictRegressed  = "regressed"
)

// worsening is how much worse b is than a, as a share of a: positive
// when b is worse in the metric's own direction.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if def.Better == "higher" {
		d = -d
	}
	return d
}

// spread is a stat's interquartile distance as a share of its median.
func spread(s stat) float64 { return ratio(s.Q3-s.Q1, math.Abs(s.Value)) }

// verdict judges base against next under def's bound. A metric whose
// own run-to-run spread (on either side) is wider than the bound cannot
// resolve a change of the bound's size: it is reported unresolved, not
// unchanged.
func verdict(def metricDef, base, next stat) string {
	w := worsening(def, base.Value, next.Value)
	switch {
	case math.Max(spread(base), spread(next)) > def.Bound:
		return verdictUnresolved
	case w > def.Bound:
		return verdictRegressed
	case w < -def.Bound:
		return verdictImproved
	}
	return verdictWithin
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload x end-to-end metric of two
// results.json files, every ratio with its base, and returns the exit
// code: 1 when anything regressed.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	base, err := loadResults(oldPath)
	if err != nil {
		fatal(1, "%v", err)
	}
	next, err := loadResults(newPath)
	if err != nil {
		fatal(1, "%v", err)
	}
	if base.Seed != next.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d): virtual metrics are not expected to be equal\n", base.Seed, next.Seed)
	}
	regressed := compareResults(w, base, next)
	if regressed > 0 {
		fmt.Fprintf(w, "FAIL: %d regressed\n", regressed)
		return 1
	}
	return 0
}

// compareResults prints the comparison table and counts regressions.
func compareResults(w io.Writer, base, next *results) (regressed int) {
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "spread", "bound", "verdict")
	for _, b := range base.Workloads {
		var n *workloadResult
		for _, cand := range next.Workloads {
			if cand.Workload == b.Workload {
				n = cand
			}
		}
		if n == nil {
			fmt.Fprintf(w, "%-14s missing from the new results\n", b.Workload)
			regressed++
			continue
		}
		for _, def := range endToEnd {
			bs, ns := b.EndToEnd[def.Name], n.EndToEnd[def.Name]
			v := verdict(def, bs, ns)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6f %14.6f %9.4f %6.2f%% %6.2f%%  %s\n", b.Workload, def.Name,
				bs.Value, ns.Value, ratio(ns.Value, bs.Value), 100*math.Max(spread(bs), spread(ns)), 100*def.Bound, v)
		}
		if b.Failed != n.Failed || b.Attempted != n.Attempted {
			fmt.Fprintf(w, "%-14s failed %d of %d -> %d of %d\n", b.Workload, b.Failed, b.Attempted, n.Failed, n.Attempted)
			if ratio(float64(n.Failed), float64(n.Attempted)) > ratio(float64(b.Failed), float64(b.Attempted)) {
				regressed++
			}
		}
	}
	return regressed
}

// aaRun runs two full sets of the same code back to back. The virtual
// metrics and fingerprints must be exactly equal; each host metric must
// agree within its own bound.
func aaRun(defs []*workloadDef, seed int64, reps int, progress func(string)) int {
	a := runSet(defs, seed, 1, reps, 0, progress)
	b := runSet(defs, seed, 1, reps, 0, progress)
	failures := 0
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "set A", "set B", "rel diff", "bound", "verdict")
	for i, def := range defs {
		for _, v := range append(append([]string(nil), a[i].Violations...), b[i].Violations...) {
			fmt.Printf("VIOLATION %s: %s\n", def.name, v)
			failures++
		}
		if a[i].Fingerprint != b[i].Fingerprint {
			fmt.Printf("%-14s fingerprint %s != %s  FAIL\n", def.name, a[i].Fingerprint, b[i].Fingerprint)
			failures++
		} else {
			fmt.Printf("%-14s fingerprint %s == %s  pass\n", def.name, a[i].Fingerprint, b[i].Fingerprint)
		}
		for _, m := range endToEnd {
			as, bs := a[i].EndToEnd[m.Name], b[i].EndToEnd[m.Name]
			diff := ratio(bs.Value-as.Value, math.Abs(as.Value))
			limit := m.Bound
			if virtualMetrics[m.Name] {
				limit = 0 // exact
			}
			ok := math.Abs(diff) <= limit
			word := "pass"
			if !ok {
				word = "FAIL"
				failures++
			}
			fmt.Printf("%-14s %-20s %14.6f %14.6f %8.3f%% %6.2f%%  %s\n", def.name, m.Name, as.Value, bs.Value, 100*diff, 100*limit, word)
		}
		if a[i].Failed != b[i].Failed || a[i].FirstFailed != b[i].FirstFailed || a[i].Attempted != b[i].Attempted {
			fmt.Printf("%-14s failed/first-attempt failures/attempted %d/%d/%d != %d/%d/%d  FAIL\n", def.name,
				a[i].Failed, a[i].FirstFailed, a[i].Attempted, b[i].Failed, b[i].FirstFailed, b[i].Attempted)
			failures++
		} else {
			fmt.Printf("%-14s %-20s %14.6f %14.6f %8.3f%% %6.2f%%  pass\n", def.name, "fail_frac",
				ratio(float64(a[i].FirstFailed), float64(a[i].Attempted)), ratio(float64(b[i].FirstFailed), float64(b[i].Attempted)), 0.0, 0.0)
		}
		if def.name == "cold_storm" {
			la, lb := runLadder(seed, 1), runLadder(seed, 1)
			word := "pass"
			if la.sustained != lb.sustained || !reflect.DeepEqual(la.rungs, lb.rungs) {
				word = "FAIL"
				failures++
			}
			fmt.Printf("%-14s %-20s %14.0f %14.0f %8.3f%% %6.2f%%  %s\n", def.name, "sustained_rate_rps", la.sustained, lb.sustained, 0.0, 0.0, word)
		}
	}
	if failures > 0 {
		fmt.Printf("FAIL: %d A/A check(s) failed\n", failures)
		return 1
	}
	fmt.Println("ok: the two sets agree within every bound")
	return 0
}
