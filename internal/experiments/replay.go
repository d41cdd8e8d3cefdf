package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"jitsu/internal/cluster"
	"jitsu/internal/core"
	"jitsu/internal/metrics"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
)

// The trace-driven experiments (Scaling, Churn, Prewarm, Federation,
// Hostile, Stampede) are one loop: a seeded arrival schedule, replayed
// verbatim against each system under comparison through that system's
// client, every outcome booked the same way. This file is that loop.

// arrival is one scheduled fetch of a service. visit is its ordinal
// among that service's arrivals, for the schedules that count visits.
type arrival struct {
	at         sim.Duration
	svc, visit int
	name       string
}

// siteName is the svcNN population's FQDN.
func siteName(s int) string { return fmt.Sprintf("svc%02d.family.name", s) }

// poisson appends service svc's arrivals in (from, until): a Poisson
// process with the given mean gap, the first gap drawn from from so the
// services' first arrivals are not synchronized.
func poisson(rng *rand.Rand, trace []arrival, svc int, from, until, mean sim.Duration) []arrival {
	gap := func() sim.Duration { return sim.Duration(rng.ExpFloat64() * float64(mean)) }
	for at := from + gap(); at < until; at += gap() {
		trace = append(trace, arrival{at: at, svc: svc, name: siteName(svc)})
	}
	return trace
}

// byTime orders per-service schedules into the one trace every run of
// an experiment shares (ties by service, so the order is total).
func byTime(trace []arrival) []arrival {
	sort.Slice(trace, func(i, j int) bool {
		if trace[i].at != trace[j].at {
			return trace[i].at < trace[j].at
		}
		return trace[i].svc < trace[j].svc
	})
	return trace
}

// staticSite is the service the replayed experiments register: a
// static-site unikernel "<prefix>NN" of memMiB (0: the stock unikernel
// size) at 10.0.0.<ipBase+s>:80.
func staticSite(prefix string, s int, ipBase byte, memMiB int) core.ServiceConfig {
	label := fmt.Sprintf("%s%02d", prefix, s)
	name := label + ".family.name"
	img := unikernel.UnikernelImage(label, unikernel.NewStaticSiteApp(name))
	if memMiB > 0 {
		img.MemMiB = memMiB
	}
	return core.ServiceConfig{Name: name, IP: netstack.IPv4(10, 0, 0, ipBase+byte(s)), Port: 80, Image: img}
}

// site is member s of the svcNN population siteName names.
func site(s, memMiB int) core.ServiceConfig { return staticSite("svc", s, 20, memMiB) }

// fetchFunc is a tier's client reduced to what a replay needs: fetch /
// from the named service, report elapsed time and error.
type fetchFunc func(name string, done func(sim.Duration, error))

// boardFetch fetches through one board's own nameserver.
func boardFetch(b *core.Board, client *netstack.Host, timeout sim.Duration) fetchFunc {
	return func(name string, done func(sim.Duration, error)) {
		b.FetchViaDNS(client, name, "/", timeout,
			func(_ *netstack.HTTPResponse, d sim.Duration, err error) { done(d, err) })
	}
}

// tierFetch fetches through a FleetClient's or a cluster Client's Fetch
// (they share a signature).
func tierFetch(fetch func(name, path string, timeout sim.Duration, done func(int, *netstack.HTTPResponse, sim.Duration, error)), timeout sim.Duration) fetchFunc {
	return func(name string, done func(sim.Duration, error)) {
		fetch(name, "/", timeout,
			func(_ int, _ *netstack.HTTPResponse, d sim.Duration, err error) { done(d, err) })
	}
}

// fedFetch fetches through the federation root.
func fedFetch(fc *cluster.FedClient, timeout sim.Duration) fetchFunc {
	return func(name string, done func(sim.Duration, error)) {
		fc.Fetch(name, "/", timeout,
			func(_, _ int, _ *netstack.HTTPResponse, d sim.Duration, err error) { done(d, err) })
	}
}

// replay schedules one fetch per arrival, in trace order, and hands
// each outcome to record together with the arrival that caused it.
func replay(eng *sim.Engine, trace []arrival, fetch fetchFunc, record func(arrival, sim.Duration, error)) {
	for _, a := range trace {
		eng.At(a.at, func() {
			fetch(a.name, func(d sim.Duration, err error) { record(a, d, err) })
		})
	}
}

// refusal reports whether err is a tier saying it has no capacity — the
// answer the experiments count apart from failures.
func refusal(err error) bool {
	return err == core.ErrAllServFail || err == cluster.ErrClusterFull || err == cluster.ErrFederationFull
}

// tally is the outcome core of a replayed run: refusals, other
// failures, and the latency of every fetch served.
type tally struct {
	lat           *metrics.Series
	refused, errs int
}

// add books one outcome and reports whether the fetch was served.
func (t *tally) add(d sim.Duration, err error) bool {
	switch {
	case refusal(err):
		t.refused++
	case err != nil:
		t.errs++
	default:
		t.lat.Add(d)
	}
	return err == nil
}

// failed is every fetch not served, refused or otherwise.
func (t *tally) failed() int { return t.refused + t.errs }

// record is add in the shape replay wants, for runs that book nothing
// beyond the tally.
func (t *tally) record(_ arrival, d sim.Duration, err error) { t.add(d, err) }
