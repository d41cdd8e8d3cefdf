// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each function is deterministic given its seed and
// returns a Result whose Output is the text rendition printed by
// cmd/jitsu-bench and checked (for shape) by the benchmark suite. The
// trace-driven ones share one arrival type, one Poisson generator, one
// replay loop and one outcome tally (replay.go).
package experiments

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"jitsu/internal/metrics"
	"jitsu/internal/netsim"
	"jitsu/internal/obs"
)

// Result is one regenerated experiment.
type Result struct {
	// ID is the paper artefact ("Figure 3", "Table 1", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Output is the rendered table/CDF text.
	Output string
	// Series holds raw distributions for programmatic assertions.
	Series map[string]*metrics.Series
	// Traces holds per-run flight recorders for experiments that attach
	// one (cmd/jitsu-bench -trace-dir exports them as Chrome traces).
	Traces map[string]*obs.Tracer
	// Captures holds per-link packet captures for the hostile-network
	// experiments: the post-loss delivery stream at virtual-time
	// precision, folded into the determinism fingerprint so two runs
	// must agree frame for frame, not just on the latency table.
	Captures map[string]*netsim.Capture
	// Notes records paper-vs-measured commentary for EXPERIMENTS.md.
	Notes []string
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title,
		Series: map[string]*metrics.Series{}, Traces: map[string]*obs.Tracer{},
		Captures: map[string]*netsim.Capture{}}
}

// Option configures an experiment run.
type Option func(*runConfig)

type runConfig struct{ trace bool }

// WithTracing attaches a flight recorder to the experiments that carry
// one (Churn, Prewarm): their spans land in Result.Traces, exported by
// cmd/jitsu-bench -trace-dir and folded into the determinism
// fingerprints. Off by default so the benchmark suite measures the
// untraced hot path the bench gate ratchets — tracing is a run-time
// opt-in, never a tax on the baseline.
func WithTracing() Option { return func(c *runConfig) { c.trace = true } }

func applyOptions(opts []Option) runConfig {
	var c runConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// addTrace attaches one run's flight recorder (nil tracers are skipped
// so runners can share one code path with tracing off).
func (r *Result) addTrace(name string, t *obs.Tracer) {
	if t != nil {
		r.Traces[name] = t
	}
}

func (r *Result) addNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the experiment block.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	b.WriteString(r.Output)
	if len(r.Notes) > 0 {
		b.WriteString("\nNotes:\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "  - %s\n", n)
		}
	}
	return b.String()
}

// FingerprintSeries hashes one series' samples (FNV-1a over the raw
// nanosecond values). Two runs of the same experiment with the same
// seed must produce identical fingerprints — the determinism contract
// the CI matrix enforces by running every experiment twice.
func FingerprintSeries(s *metrics.Series) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range s.Samples {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Fingerprint combines every series of the result (in sorted name
// order) into one hash, mixing in the rendered output so table-only
// experiments are covered too. Trace streams are part of the
// determinism contract as well — a run that reproduces every latency
// sample but schedules its spans differently must not fingerprint
// clean — and so are packet captures: a run that lands every sample but
// delivers (or drops) different frames at different instants must not
// either.
func (r *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.Output))
	mixSorted(h, r.Series, FingerprintSeries)
	mixSorted(h, r.Traces, (*obs.Tracer).Fingerprint)
	mixSorted(h, r.Captures, (*netsim.Capture).Fingerprint)
	return h.Sum64()
}

// mixSorted folds each entry of m into h — name, then the entry's own
// fingerprint little-endian — in sorted name order.
func mixSorted[T any](h hash.Hash64, m map[string]T, fp func(T) uint64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(buf[:], fp(m[name]))
		h.Write(buf[:])
	}
}

// All runs every experiment at the given scale (trials multiplier,
// 1 = full paper scale, smaller for quick runs). Options are forwarded
// to the experiments that take them.
func All(quick bool, opts ...Option) []*Result {
	trials := 120
	fig3N := []int{1, 25, 50, 100, 150, 200}
	scalingN := []int{1, 2, 4, 8}
	scalingHorizon := 90 * time.Second
	churnHorizon := 75 * time.Second
	federationHorizon := 60 * time.Second
	stampedeFedHorizon := 300 * time.Second
	prewarmVisits := 40
	hostileFlash := 60
	hostileSwim := 60 * time.Second
	densityServices, densityMemMiB, densitySamples := 128, 256, 40
	if quick {
		trials = 30
		fig3N = []int{1, 10, 25, 50}
		scalingN = []int{1, 4}
		churnHorizon = 45 * time.Second
		federationHorizon = 45 * time.Second
		stampedeFedHorizon = 150 * time.Second
		prewarmVisits = 24
		hostileFlash = 30
		hostileSwim = 30 * time.Second
		densityServices, densityMemMiB, densitySamples = 48, 128, 20
	}
	return []*Result{
		Fig3(fig3N),
		Fig4(),
		Fig8(trials / 2),
		Fig9a(trials),
		Fig9b(trials),
		Table1(),
		Table2(),
		Throughput(),
		Headline(trials / 4),
		Scaling(scalingN, scalingHorizon),
		Churn(churnHorizon, opts...),
		Prewarm(prewarmVisits, opts...),
		Federation(federationHorizon),
		Hostile(hostileFlash, hostileSwim),
		Stampede(stampedeFedHorizon),
		Density(densityServices, densityMemMiB, densitySamples),
	}
}
