// Command jitsu-bench regenerates the paper's evaluation: every table
// and figure (and the ablations), printed as text tables and CDFs.
//
// With -fingerprint it prints one stable hash line per experiment
// series instead of the tables; the CI determinism job runs it twice
// and diffs the output, so any nondeterminism in the simulation (or in
// the gossip membership layer under the churn experiment) fails the
// build.
//
// Usage:
//
//	jitsu-bench [-run all|fig3|fig4|fig8|fig9a|fig9b|table1|table2|throughput|headline|scaling|churn|prewarm|federation|hostile|density|stampede|ablations] [-quick] [-boards 1,2,4,8] [-fingerprint] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"jitsu/internal/experiments"
	"jitsu/internal/obs"
)

func main() {
	os.Exit(realMain())
}

// realMain is main with an exit code, so the profile files' deferred
// flushes run on every path out.
func realMain() int {
	run := flag.String("run", "all", "experiment to regenerate")
	quick := flag.Bool("quick", false, "reduced trial counts")
	boards := flag.String("boards", "", "board counts for the scaling experiment (default 1,2,4,8; 1,4 with -quick)")
	fingerprint := flag.Bool("fingerprint", false, "print per-series determinism fingerprints instead of tables")
	traceDir := flag.String("trace-dir", "", "write each experiment's flight-recorder traces (Chrome trace-event JSON) into this directory")
	profiles := obs.ProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProfiles()

	trials := 120
	fig3N := []int{1, 25, 50, 100, 150, 200}
	scalingHorizon := 90 * time.Second
	churnHorizon := 75 * time.Second
	federationHorizon := 60 * time.Second
	stampedeFedHorizon := 300 * time.Second
	prewarmVisits := 40
	hostileFlash := 60
	hostileSwim := 60 * time.Second
	densityServices, densityMemMiB, densitySamples := 128, 256, 40
	if *quick {
		trials = 30
		fig3N = []int{1, 10, 25, 50}
		churnHorizon = 45 * time.Second
		federationHorizon = 45 * time.Second
		stampedeFedHorizon = 150 * time.Second
		prewarmVisits = 24
		hostileFlash = 30
		hostileSwim = 30 * time.Second
		densityServices, densityMemMiB, densitySamples = 48, 128, 20
	}
	boardsSet := *boards != ""
	if !boardsSet {
		*boards = "1,2,4,8"
		if *quick {
			*boards = "1,4"
		}
	}
	scalingN, err := parseBoards(*boards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -boards: %v\n", err)
		return 2
	}

	// The CLI always runs with tracing on: -trace-dir needs the flight
	// recorders, and the determinism gate's -fingerprint output must
	// cover the trace streams on every invocation. The benchmark suite
	// calls the experiment functions without this option and measures
	// the untraced hot path.
	withTrace := experiments.WithTracing()

	var results []*experiments.Result
	switch *run {
	case "all":
		results = experiments.All(*quick, withTrace)
		if boardsSet {
			// Honour an explicit -boards by re-running the scaling
			// experiment at the requested counts.
			for i, r := range results {
				if r.ID == "Scaling" {
					results[i] = experiments.Scaling(scalingN, scalingHorizon)
				}
			}
		}
	case "fig3":
		results = append(results, experiments.Fig3(fig3N))
	case "fig4":
		results = append(results, experiments.Fig4())
	case "fig8":
		results = append(results, experiments.Fig8(trials/2))
	case "fig9a":
		results = append(results, experiments.Fig9a(trials))
	case "fig9b":
		results = append(results, experiments.Fig9b(trials))
	case "table1":
		results = append(results, experiments.Table1())
	case "table2":
		results = append(results, experiments.Table2())
	case "throughput":
		results = append(results, experiments.Throughput())
	case "headline":
		results = append(results, experiments.Headline(trials/4))
	case "scaling":
		results = append(results, experiments.Scaling(scalingN, scalingHorizon))
	case "churn":
		results = append(results, experiments.Churn(churnHorizon, withTrace))
	case "prewarm":
		results = append(results, experiments.Prewarm(prewarmVisits, withTrace))
	case "federation":
		results = append(results, experiments.Federation(federationHorizon))
	case "hostile":
		results = append(results, experiments.Hostile(hostileFlash, hostileSwim))
	case "density":
		results = append(results, experiments.Density(densityServices, densityMemMiB, densitySamples))
	case "stampede":
		results = append(results, experiments.Stampede(stampedeFedHorizon))
	case "ablations":
		results = append(results,
			experiments.AblationMergeStrategies(30),
			experiments.AblationPrecreatedDomains(),
			experiments.AblationSynjitsuMatrix(trials/6),
			experiments.AblationParallelAttach(),
			experiments.AblationHotplug(),
			experiments.AblationDelayedDNS(trials/6),
		)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		return 2
	}

	if *traceDir != "" {
		if err := writeTraces(*traceDir, results); err != nil {
			fmt.Fprintf(os.Stderr, "write traces: %v\n", err)
			return 1
		}
	}
	if *fingerprint {
		printFingerprints(results)
		return 0
	}
	for _, r := range results {
		fmt.Println(r.String())
	}
	return 0
}

// writeTraces dumps every attached flight recorder as
// <dir>/<experiment>-<run>.trace.json, loadable in chrome://tracing or
// Perfetto.
func writeTraces(dir string, results []*experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range results {
		names := make([]string, 0, len(r.Traces))
		for name := range r.Traces {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			path := filepath.Join(dir, slug(r.ID)+"-"+slug(name)+".trace.json")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := obs.WriteChromeTrace(f, r.Traces[name]); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "trace: %s (%d events, %d dropped)\n",
				path, r.Traces[name].Len(), r.Traces[name].Dropped())
		}
	}
	return nil
}

// slug makes an ID/series name filesystem-friendly.
func slug(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, s)
}

// printFingerprints renders the determinism record: one line per
// experiment plus one per series, stable across runs with fixed seeds.
func printFingerprints(results []*experiments.Result) {
	for _, r := range results {
		fmt.Printf("%s\t-\t-\t%016x\n", r.ID, r.Fingerprint())
		names := make([]string, 0, len(r.Series))
		for name := range r.Series {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := r.Series[name]
			fmt.Printf("%s\t%s\t%d\t%016x\n", r.ID, name, s.Len(), experiments.FingerprintSeries(s))
		}
		tnames := make([]string, 0, len(r.Traces))
		for name := range r.Traces {
			tnames = append(tnames, name)
		}
		sort.Strings(tnames)
		for _, name := range tnames {
			tr := r.Traces[name]
			fmt.Printf("%s\ttrace:%s\t%d\t%016x\n", r.ID, name, tr.Len(), tr.Fingerprint())
		}
		cnames := make([]string, 0, len(r.Captures))
		for name := range r.Captures {
			cnames = append(cnames, name)
		}
		sort.Strings(cnames)
		for _, name := range cnames {
			c := r.Captures[name]
			fmt.Printf("%s\tcapture:%s\t%d\t%016x\n", r.ID, name, len(c.Records), c.Fingerprint())
		}
	}
}

func parseBoards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("%q is not a board count", part)
		}
		out = append(out, n)
	}
	return out, nil
}
