package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"jitsu/internal/core"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
)

// fetchTimeout is the client-side deadline of one fetch; a fetch that
// overruns it is a failure like any other error.
const fetchTimeout = 30 * time.Second

// tracerRing holds every flight-recorder event of the largest traced
// rep (≈ 40 k: warm_fetch's one activation instant per fetch) three
// times over; a rep that overflows it fails its checks.
const tracerRing = 1 << 17

// world is one freshly built system plus the seeded inputs of one rep.
// Construction is the set-up; run is the timed section; finish drains
// what run left pending and checks the end state.
type world interface {
	run()
	finish()
	// counters reads every raw layer count reachable through exported
	// API. Read once after set-up and once after finish; the difference
	// is what the timed section did.
	counters() map[string]uint64
	// virtualNow is the engine's clock.
	virtualNow() sim.Duration
	outcome() *outcome
	// flight is the repo's own flight recorder, attached on a traced rep.
	flight() *obs.Tracer
}

// outcome is what one rep's requests produced, on the virtual clock.
type outcome struct {
	// A request is one client operation. A fetch whose first attempt
	// errors, times out or is refused is retried once, as a browser
	// would; it fails only if the second attempt fails too. A wire verb
	// is not retried. firstFailed counts requests whose first attempt
	// failed, failed those that failed for good.
	attempted, failed, firstFailed int
	// lat holds the latency of each successful request in completion
	// order — the order is part of the fingerprint.
	lat []sim.Duration
	// failures says why the first few failed requests failed.
	failures []string
	// violations are output-check failures: a wrong body, a wrong
	// address, a refusal with the wrong code, a leaked domain. Any
	// violation fails the run.
	violations []string
}

// failedRequest books a request that failed for good and keeps the
// reason for the report.
func (o *outcome) failedRequest(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) violate(format string, args ...any) {
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// subSeed derives the seed of one input stream from the run seed, so
// the arrival times, the service draws and the engine's own jitter are
// independent streams of one -seed.
func subSeed(seed int64, stream int) int64 {
	return seed*1_000_003 + int64(stream)*7919
}

// site is one registered static-site unikernel and the outputs a
// correct system must produce for it.
type site struct {
	name string
	ip   netstack.IP
	body []byte
	svc  *core.Service
}

func siteConfig(i int, zone string, memMiB int, idle sim.Duration) (core.ServiceConfig, []byte) {
	label := fmt.Sprintf("svc%03d", i)
	name := label + "." + zone
	app := unikernel.NewStaticSiteApp(name)
	img := unikernel.UnikernelImage(label, app)
	img.MemMiB = memMiB
	return core.ServiceConfig{
		Name:        name,
		IP:          netstack.IPv4(10, 0, 0, byte(20+i)),
		Port:        80,
		Image:       img,
		IdleTimeout: idle,
	}, app.Pages["/"]
}

// checkResponse is the output check every fetch passes through.
func checkResponse(o *outcome, name string, want []byte, resp *netstack.HTTPResponse) {
	if resp.Status != 200 {
		o.violate("%s: status %d, want 200", name, resp.Status)
	} else if !bytes.Equal(resp.Body, want) {
		o.violate("%s: body %q is not the registered page", name, resp.Body)
	}
}

// arrival is one open-loop request: due time, service and client.
type arrival struct {
	at     sim.Duration
	svc    int
	client int
}

// poissonTrace draws arrivals at rate per second over horizon, each on
// a uniformly drawn service, clients taken round-robin.
func poissonTrace(seed int64, rate float64, horizon sim.Duration, services, clients int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	gap := float64(time.Second) / rate
	for at := sim.Duration(rng.ExpFloat64() * gap); at < horizon; at += sim.Duration(rng.ExpFloat64() * gap) {
		out = append(out, arrival{at: at, svc: rng.Intn(services), client: len(out) % clients})
	}
	return out
}

// newTracer returns the flight recorder of a traced rep, nil otherwise.
func newTracer(rec *recorder) *obs.Tracer {
	if rec == nil {
		return nil
	}
	return obs.NewTracer(tracerRing)
}
