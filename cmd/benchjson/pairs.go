package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// spec is the part of BENCHMARK.json a paired comparison needs.
type spec struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// benchRun is one bench/run.sh result line.
type benchRun struct {
	Failed  float64
	Metrics map[string]struct{ Value float64 }
}

// loadRuns reads a file of result lines, one run each, in pair order.
func loadRuns(path string) (runs []benchRun, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var r benchRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: run %d: %w", path, len(runs)+1, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// quartiles returns the lower quartile, median and upper quartile of v.
func quartiles(v []float64) (q [3]float64) {
	s := slices.Sorted(slices.Values(v))
	for i := range q {
		pos := float64(i+1) / 4 * float64(len(s)-1)
		lo := int(pos)
		q[i] = s[lo]
		if lo+1 < len(s) {
			q[i] += (pos - float64(lo)) * (s[lo+1] - s[lo])
		}
	}
	return q
}

// pairs reports, per end-to-end metric, both sides' medians with
// quartiles, in how many pairs the change read better, and the verdict
// of the choosing-metrics rule: a gain needs nine pairs in ten and
// medians further apart than the parent's own quartiles; a metric that
// repeats exactly on both sides is a count and reads equal/lower/higher.
func pairs(sp spec, parent, change []benchRun) string {
	n := min(len(parent), len(change))
	if n == 0 {
		return "no pairs\n"
	}
	var sb strings.Builder
	var pf, cf float64
	for i := 0; i < n; i++ {
		pf, cf = pf+parent[i].Failed, cf+change[i].Failed
	}
	fmt.Fprintf(&sb, "%d pairs; failed requests: parent %g, change %g\n", n, pf, cf)
	for _, m := range sp.EndToEnd {
		var p, c []float64
		wins, ties := 0, 0
		for i := 0; i < n; i++ {
			pv, cv := parent[i].Metrics[m.Name].Value, change[i].Metrics[m.Name].Value
			p, c = append(p, pv), append(c, cv)
			if cv == pv {
				ties++
			} else if (cv < pv) == (m.Better == "lower") {
				wins++
			}
		}
		pq, cq := quartiles(p), quartiles(c)
		worse := cq[1] - pq[1] // how much worse the change's median reads
		if m.Better != "lower" {
			worse = -worse
		}
		verdict := "within bound"
		exact := slices.Min(p) == slices.Max(p) && slices.Min(c) == slices.Max(c)
		switch spread := max(pq[2]-pq[0], cq[2]-cq[0]); {
		case exact && worse == 0:
			verdict = "equal (exact)"
		case exact && cq[1] > pq[1]:
			verdict = "higher (exact)"
		case exact:
			verdict = "lower (exact)"
		case float64(wins) >= 0.9*float64(n) && -worse > pq[2]-pq[0]:
			verdict = "gain"
		case worse > m.Bound*pq[1]:
			verdict = "WORSE than bound"
		case spread > m.Bound*pq[1]:
			verdict = "unresolved: spread wider than bound"
		}
		fmt.Fprintf(&sb, "%-20s %-5s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  %+.1f%%  wins %d ties %d of %d  %s\n",
			m.Name, m.Unit, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], 100*(cq[1]-pq[1])/pq[1], wins, ties, n, verdict)
	}
	return sb.String()
}

// memory reports the memory metrics of two sides' traced runs, each
// side's median and quartiles, and gives no verdict: peak heap wanders
// from run to run, and bytes per request move with size classes.
func memory(parent, change []benchRun) string {
	var sb strings.Builder
	for _, name := range []string{"host.peak_heap_mb", "host.alloc_kb_per_req"} {
		p, c := values(parent, name), values(change, name)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		pq, cq := quartiles(p), quartiles(c)
		fmt.Fprintf(&sb, "%-21s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  %+.1f%%  traced runs %d and %d, reported only\n",
			name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], 100*(cq[1]-pq[1])/pq[1], len(p), len(c))
	}
	return sb.String()
}

// values returns the runs' readings of one metric, where they have it.
func values(runs []benchRun, name string) (v []float64) {
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}
