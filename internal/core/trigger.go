package core

import (
	"bytes"
	"fmt"
	"strings"

	"jitsu/internal/conduit"
	"jitsu/internal/dns"
	"jitsu/internal/xenstore"
)

// Activation frontends. Each adapts one inbound signal source — a DNS
// wire query, a raw TCP SYN, a conduit resolve line, a predicted
// arrival — to the board's shared Activation machine: it resolves its
// target to a *Service (by name or by endpoint), calls Activation.Fire
// with a Summon whose Via names the frontend, and renders the returned
// Decision in its own protocol (an A record, a SERVFAIL, an "ok <ip>"
// line, nothing at all). newJitsu wires the built-ins once; a new
// workload is one more caller of Fire, not another fork of the core
// lifecycle.

// Summon.Via names of the built-in frontends.
const (
	// TriggerDNS is the synchronous DNS frontend's name.
	TriggerDNS = "dns"
	// TriggerDNSAsync is the delayed-DNS frontend's name.
	TriggerDNSAsync = "dns-async"
	// TriggerSYN is the SYN frontend's name.
	TriggerSYN = "syn"
	// TriggerConduit is the conduit resolve frontend's name.
	TriggerConduit = "conduit"
)

// ---- DNS (synchronous): the paper's headline frontend ----

// interceptDNS is the board DNS server's Intercept hook: it answers
// A/ANY queries for registered services, launching as a side effect —
// "returning a DNS response as soon as the VM resource allocation is
// complete". The answer is the service's pre-built RR, which the server
// caches as pre-encoded wire (Register and Deregister bump its epoch).
func (j *Jitsu) interceptDNS(name []byte, typ dns.Type) (dns.Verdict, *dns.RR) {
	if typ != dns.TypeA && typ != dns.TypeANY {
		return dns.VerdictMiss, nil
	}
	svc, ok := j.services[string(name)] // alloc-free map probe
	if !ok {
		return dns.VerdictMiss, nil
	}
	if j.act.Fire(svc, Summon{Via: TriggerDNS, ColdStart: true, Refuse: true}) == DecisionNoMemory {
		return dns.VerdictServFail, nil
	}
	return dns.VerdictAnswer, &svc.answerRR
}

// ---- DNS (delayed): the rejected §3.3.1 alternative (ablation) ----

// interceptDelayed holds the DNS answer until the unikernel is ready,
// removing the SYN race at the cost of a much slower resolution. Its
// responders park in the Activation machine's waiter queue.
func (j *Jitsu) interceptDelayed(query *dns.Message, respond func(*dns.Message)) bool {
	if len(query.Questions) != 1 {
		return false
	}
	q := query.Questions[0]
	svc, ok := j.services[dns.CanonicalName(q.Name)]
	if !ok || (q.Type != dns.TypeA && q.Type != dns.TypeANY) {
		return false
	}
	answer := func(err error) {
		resp := &dns.Message{ID: query.ID, Response: true, Authoritative: true,
			Questions: query.Questions}
		if err != nil {
			resp.RCode = dns.RCodeServFail
		} else {
			resp.Answers = append(resp.Answers, svc.answerRR)
		}
		respond(resp)
	}
	if j.act.Fire(svc, Summon{Via: TriggerDNSAsync, ColdStart: true, Refuse: true, OnReady: answer}) == DecisionNoMemory {
		answer(ErrNoMemory)
	}
	return true
}

// ---- SYN: connections arriving outside any DNS resolution ----

// synTrigger summons a service when a raw SYN reaches its proxied
// address with no preceding DNS query (clients ignoring TTLs, §3.3).
// Synjitsu completes the handshake either way; this trigger only owns
// the launch decision, which passes admission like every other firing.
// A SYN has no refusal channel: a refused firing leaves the proxied
// connection parked, and the activation fires again on its behalf
// (settle). An optional per-service token bucket (WithSYNRateLimit)
// caps how often a SYN may start a launch, so a flood cannot reboot a
// reaped service at every reap.
type synTrigger struct {
	j       *Jitsu
	buckets map[*Service]*tokenBucket // nil = unlimited
}

// synOutcome is one SYN firing's effect on the launch state.
type synOutcome int

const (
	synServed     synOutcome = iota // no launch started: warm, launching or refused
	synLaunched                     // this SYN started the launch
	synSuppressed                   // launch denied by the admission rate limit
)

// fire is called by Synjitsu for every proxied connection. A firing
// that would start a launch first passes the admission bucket; warm
// services and in-flight boots are never throttled (the touch keeps
// the idle reaper honest for legitimate traffic).
func (t *synTrigger) fire(svc *Service) synOutcome {
	if t.buckets != nil && svc.State.NeedsLaunch() && !t.admit(svc) {
		return synSuppressed
	}
	if t.j.act.Fire(svc, Summon{Via: TriggerSYN, ColdStart: true}) == DecisionColdStart {
		return synLaunched
	}
	return synServed
}

// ---- Conduit: the toolkit resolve path ----

// serveConduit publishes the well-known jitsud name (§3.3: "the Jitsu
// resolver is discovered via a well-known jitsud Conduit node"). The
// protocol is line-based: "resolve <name>\n" → "ok <ip>\n" |
// "servfail\n" | "nxdomain\n".
func (j *Jitsu) serveConduit(reg *conduit.Registry) {
	_, err := reg.Register(xenstore.Dom0, "jitsud", func(ep *conduit.Endpoint) {
		var buf []byte
		ep.OnData(func(data []byte) {
			buf = append(buf, data...)
			for {
				idx := bytes.IndexByte(buf, '\n')
				if idx < 0 {
					return
				}
				line := string(buf[:idx])
				buf = buf[idx+1:]
				ep.Write([]byte(j.resolveLine(line)))
			}
		})
	})
	if err != nil {
		panic(fmt.Sprintf("core: register jitsud: %v", err))
	}
}

func (j *Jitsu) resolveLine(line string) string {
	name, ok := strings.CutPrefix(line, "resolve ")
	if !ok {
		return "badrequest\n"
	}
	svc, err := j.Service(strings.TrimSpace(name))
	if err != nil {
		return "nxdomain\n"
	}
	switch j.act.Fire(svc, Summon{Via: TriggerConduit, ColdStart: true, Refuse: true}) {
	case DecisionNoMemory:
		return "servfail\n"
	case DecisionRetired:
		return "nxdomain\n"
	}
	return svc.okLine
}
