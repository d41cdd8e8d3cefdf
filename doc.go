// Package jitsu is a from-scratch Go reproduction of "Jitsu:
// Just-In-Time Summoning of Unikernels" (Madhavapeddy et al., NSDI
// 2015): a Xen toolstack that launches unikernels in response to
// inbound traffic, masking boot latency with the Synjitsu connection
// proxy.
//
// # Activation layering
//
// The paper's insight is that any inbound signal can summon a
// unikernel. The code is layered accordingly:
//
//   - core.Activation is the single lifecycle state machine per board:
//     admission (does the image fit), claim-IP → launch/restore →
//     flush-waiters → reap. Every launch in the system goes through its
//     Fire(service, Summon) call, which returns a Decision
//     (serve / cold-start / no-memory / retired).
//   - A frontend is anything that calls Fire under a Summon.Via name.
//     The built-ins, wired once when the board is built — synchronous
//     DNS, delayed DNS (the rejected §3.3.1 ablation), raw SYN, and the
//     jitsud conduit protocol — each resolve their own signal to a
//     service, Fire the machine, and render the Decision in their own
//     wire format. The DNS server has one synchronous hook,
//     dns.Server.Intercept, consulted before its answer cache on both
//     serve paths; its Verdict alone says whether a reply may be cached.
//     The cluster scheduler wraps board 0's hook and answers per query,
//     and core.PrewarmTrigger summons services predictively, ahead of
//     recurring arrivals, with no packet at all. New workloads are one
//     more caller of Fire, not a fork of the lifecycle.
//   - internal/api is the typed control-plane surface (Register /
//     Activate / Checkpoint / Restore / Migrate / Transfer / Stop /
//     Stats with error codes). cmd/jitsud and the cluster's migration
//     path speak it; api.ForBoard adapts one board, Cluster.API a whole
//     cluster; Transfer is the federation leg that hands a service —
//     optionally with its checkpointed warm state — to another cluster.
//
// # Federation layering
//
// Above the cluster sits the cluster-of-clusters tier
// (cluster.NewFederation), shaped by the hierarchical-directory
// literature: per-cluster directories stay the authoritative leaves,
// and the root holds only summaries:
//
//	client ──DNS──> root directory        state: one Summary per cluster
//	                  │                    (bloom over names, load/memory
//	                  │ delegate            aggregates) — O(clusters)
//	                  v
//	            owning cluster's board-0 directory — authoritative,
//	            schedules the placement and answers; the root caches
//	            the delegation (and negatives) stamped with
//	            dns.Server.Epoch, invalidated wholesale on any
//	            member directory change
//
// Placement is hierarchical too: services home on the least-loaded
// cluster, a refused admission spills the service to a cluster with
// room, and sustained load skew across the gossiped per-cluster EWMAs
// sheds warm replicas between clusters (Checkpoint -> Transfer ->
// Restore, make-before-break) — rebalance is a detector, not an
// operator call.
//
// # Wire and congestion-control layering
//
// The control plane has a wire form. internal/wire sits ABOVE
// internal/api: it serializes every api.ControlPlane verb as
// length-prefixed binary frames of one protocol version with request ids
// and typed error codes — wire.Serve exposes any api backend on a
// simulated management endpoint behind a capability keyring (a session
// presents a token and is granted a verb scope: read-only, operator or
// admin; a session without one falls under the server's
// anonymous-session policy; out-of-scope verbs answer
// api.CodeUnauthorized without killing the session), wire.DialSession
// implements api.ControlPlane over a dialled netstack connection, and
// the async
// verbs (Activate/Promote ready, Migrate done, WatchStats snapshots)
// come back as server-pushed event frames. A server carries any number
// of concurrent operator sessions, each with its own request-id space
// and watch registry. Anything that speaks api — a board, a cluster, a
// test fake — is remotable without change, and `jitsud -connect`
// drives a whole cluster through three concurrently connected scoped
// consoles. The verb set is written once per package: api holds one
// {name, scope} table, wire one table of rows indexed by request frame
// type (each frame body a single walk that both encodes and decodes),
// and the codec, the server's gate and dispatch and the client's call
// read the rows.
//
// internal/cc sits BELOW the bulk movers: cc.Controller is a pure
// window/RTO state machine per management uplink (CUBIC with
// delay-based backoff, no wire knowledge), and cc.Sender is the one
// windowed chunk sender — split, acquire-before-transmit, ack,
// retransmit, abort — that both the cluster's migration pre-copy and
// the federation's Transfer leg instantiate with their own socket,
// config values and counters. Pacing bounds how much bulk may queue
// ahead of a control datagram on the shared FIFO links — the Stampede
// experiment measures exactly that — while netsim.WANProfile presets
// (wan20ms/wan50ms/wan100ms) shape the links those transfers share with
// gossip and delegation traffic.
//
// # Observability layering
//
// internal/obs is the deterministic observability plane, and it sits
// BELOW every subsystem it observes: core, dns, cluster and the
// federation all import obs; obs imports none of them (only the
// standard library). Timestamps come exclusively from the simulation's
// virtual clock — a *Tracer is handed to a board/cluster/federation at
// construction and bound to its engine — so two same-seed runs export
// byte-identical traces, and the determinism gate fingerprints the
// trace streams alongside the latency series. Instrumentation follows
// two rules: hot paths guard every trace call behind a nil check (a
// deployment without a tracer pays zero allocations — the bench gate
// holds the DNS fast path and the recorder itself at 0 allocs/op), and
// counters live in per-subsystem obs.Registry mirrors snapshot via
// api.StatsResponse.Registries / streamed via api.WatchStats rather
// than scattering ad-hoc getters. A stream refills one buffer per tick,
// so a snapshot handed to OnStats is valid until it returns.
//
// Every tier's client runs the same transaction, written once as
// dns.Fetcher: resolve at a Jitsu directory, then GET from the answered
// address with the rest of the budget. Board, fleet, cluster and
// federation clients supply only their directory, retry schedule, refusal
// error and answer-to-attachment routing.
//
// Boards and clusters are built with functional options (core.New,
// core.NewOnEngine, cluster.NewCluster, cluster.NewFederation).
//
// The implementation lives under internal/ (one package per subsystem);
// the imports between those packages are a table in surface_test.go,
// so this layering is a test. Runnable entry points are in cmd/ and
// examples/; bench_test.go regenerates every table and figure of the
// paper's evaluation, and bench/ is the repository benchmark (its own
// module; bench/README.md).
package jitsu
