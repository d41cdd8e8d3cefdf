package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// span is one recorded interval. Parent is the index of the causing
// span in the same file (-1 for a request root); every span of one
// request shares Req. All spans here are on the virtual clock — host
// time is measured around whole timed sections, never per request,
// because a per-request host timer would itself be the hot path.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Clock  string `json:"clock"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// key joins flight-recorder spans (which carry a service name, not
	// a request id) to the request that caused them.
	key string
}

// recorder holds the traced run's spans in memory until the benchmark
// ends. A nil recorder records nothing and allocates nothing, so the
// untraced reps pay one nil check per call site.
type recorder struct {
	spans []span
	// background holds flight-recorder spans no request caused
	// (speculative prewarms, skew-shed transfers, pool reconciles).
	background []span
}

// begin opens a span and returns its index; -1 on a nil recorder.
func (r *recorder) begin(req, parent int, layer, name, key string, at sim.Duration) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Layer: layer,
		Name: name, Clock: "virtual", Start: int64(at), End: -1, key: key})
	return id
}

func (r *recorder) end(id int, at sim.Duration) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(at)
}

// child records an already-finished interval under parent.
func (r *recorder) child(parent int, layer, name string, from, to sim.Duration) {
	if r == nil || parent < 0 {
		return
	}
	p := r.spans[parent]
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Req: p.Req,
		Layer: layer, Name: name, Clock: "virtual", Start: int64(from), End: int64(to)})
}

// durations returns the lengths of every finished span called name.
func (r *recorder) durations(layer, name string) []sim.Duration {
	if r == nil {
		return nil
	}
	var out []sim.Duration
	for _, set := range [][]span{r.spans, r.background} {
		for i := range set {
			if s := &set[i]; s.Layer == layer && s.Name == name && s.End >= s.Start {
				out = append(out, sim.Duration(s.End-s.Start))
			}
		}
	}
	return out
}

// tracerLayers maps the flight recorder's categories onto layer names.
var tracerLayers = map[string]string{"activation": "core", "migrate": "cluster", "fed": "cluster"}

// svcKey reduces a service name to its first label: the federation
// namespaces names per cluster (svc07.c2.family.name), the client asks
// for svc07.family.name, and both must join.
func svcKey(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// importTracer pairs the flight recorder's begin/end edges into spans
// and hangs each under the request that caused it: the earliest request
// root for the same service whose interval contains the whole span.
// Anything else — a prewarm boot nobody waited for, a shed transfer —
// is background work and kept apart, so the request spans stay a
// forest with every child inside its parent.
func (r *recorder) importTracer(tr *obs.Tracer) {
	if r == nil || tr == nil {
		return
	}
	opens := map[uint64]obs.Event{}
	roots := map[string][]int{} // service key -> root span ids, start order
	for i := range r.spans {
		if r.spans[i].Parent < 0 && r.spans[i].key != "" {
			roots[r.spans[i].key] = append(roots[r.spans[i].key], i)
		}
	}
	for _, ev := range tr.Events(nil) {
		switch ev.Kind {
		case obs.KindBegin:
			opens[ev.Span] = ev
		case obs.KindEnd:
			b, ok := opens[ev.Span]
			if !ok {
				continue // begin edge overwritten in the ring
			}
			delete(opens, ev.Span)
			layer := tracerLayers[b.Cat]
			if layer == "" {
				layer = b.Cat
			}
			key := ""
			for i := 0; i < int(b.NAttr); i++ {
				if a := b.Attrs[i]; a.Key == "svc" || a.Key == "name" {
					key = svcKey(a.Str)
				}
			}
			s := span{Parent: -1, Layer: layer, Name: b.Cat + "." + b.Name, Clock: "virtual",
				Start: int64(b.At), End: int64(ev.At)}
			placed := false
			for _, root := range roots[key] {
				p := &r.spans[root]
				if p.Start <= s.Start && p.End >= s.End {
					s.ID, s.Parent, s.Req = len(r.spans), root, p.Req
					r.spans = append(r.spans, s)
					placed = true
					break
				}
			}
			if !placed {
				s.ID = len(r.background)
				r.background = append(r.background, s)
			}
		}
	}
}

// selfTimes sums, per layer, each span's duration minus what its
// children cover (children may overlap; the union is subtracted).
func (r *recorder) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if r == nil {
		return out
	}
	kids := make([][]int, len(r.spans))
	for i := range r.spans {
		if p := r.spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.End < s.Start {
			continue
		}
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return r.spans[ks[a]].Start < r.spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			c := &r.spans[k]
			from, to := max(c.Start, edge), min(c.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// traceFile is the on-disk form of one workload's traced run.
type traceFile struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Spans      []span            `json:"spans"`
	Background []span            `json:"background"`
	Counts     map[string]uint64 `json:"counts"`
	SelfNS     map[string]int64  `json:"self_ns_by_layer"`
}

func (r *recorder) write(path, workload string, seed int64, counts map[string]uint64) error {
	self := map[string]int64{}
	for layer, d := range r.selfTimes() {
		self[layer] = int64(d)
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: r.spans,
		Background: r.background, Counts: counts, SelfNS: self})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
