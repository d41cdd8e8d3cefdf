# Jitsu reproduction — build / test / perf-record / CI-gate targets.
#
# `make ci` runs the exact gate GitHub Actions runs (.github/workflows/
# go.yml): vet + gofmt + staticcheck + actionlint, build, tests (plain
# and -race, plus the bench/ module's own), a fuzz smoke pass over every
# target below, the bench gate against the committed record, the
# allocation gate of the repository benchmark against ALLOCS.json (the
# determinism check is a test: go test ./cmd/jitsu-bench).
# The nightly workflow (.github/workflows/nightly-fuzz.yml) runs the
# same fuzz targets for 10 minutes each.

# pipefail so a failing `go test` is not masked by the benchjson stage
# of the bench pipeline.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go
# Where `make bench` writes its record. The committed one is the
# default: re-record it when a benchmark is added or its deterministic
# numbers are meant to move; history is in git.
BENCH_OUT ?= BENCH.json
FUZZTIME ?= 10s
# Pinned static-analysis tool versions — CI and `make ci` must agree.
STATICCHECK_VERSION ?= 2025.1.1
ACTIONLINT_VERSION ?= v1.7.7

.PHONY: all build test vet race fmt-check bench-check bench-pair allocs-gate allocs-record loc loc-by-package staticcheck actionlint fuzz fuzz-summary fuzz-impaired fuzz-wire fuzz-store fuzz-tcb fuzz-engine fuzz-lifecycle bench bench-gate ci

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench-check vets and smoke-tests the repository benchmark. bench/ is
# its own module, so `go build ./... && go test ./...` at the root never
# compiles it: without this an internal/ API change breaks it silently.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# loc prints the design-quality yardstick: non-test Go lines outside
# the benchmark module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# loc-by-package breaks the same number down by directory, largest
# first, and ends with the loc total, so the biggest packages are its
# first lines and a before/after report is one command run twice.
loc-by-package:
	@for d in $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -printf '%h\n' | sort -u); do \
		printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) $$d; \
	done | sort -k1,1nr -k2
	@printf '%6d total\n' $$($(MAKE) -s --no-print-directory loc)

# staticcheck runs the pinned honnef.co analyzer over every package;
# `go run` resolves the exact version, so CI (module-cached) and local
# runs execute identical binaries.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# actionlint lints the GitHub Actions workflows themselves, so a typo'd
# gate cannot silently stop gating.
actionlint:
	$(GO) run github.com/rhysd/actionlint/cmd/actionlint@$(ACTIONLINT_VERSION)

# Short fuzz passes over every fuzz target — this list is the only one;
# CI's fuzz-smoke job runs it (the long-running fuzzing is the nightly
# workflow, or interactively: go test -fuzz=FuzzDNSCodec ./internal/dns).
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzDNSCodec -fuzztime=$(FUZZTIME) ./internal/dns
	$(MAKE) fuzz-summary
	$(MAKE) fuzz-impaired
	$(MAKE) fuzz-wire
	$(MAKE) fuzz-store
	$(MAKE) fuzz-tcb
	$(MAKE) fuzz-engine
	$(MAKE) fuzz-lifecycle

# fuzz-summary smokes the federation root's summary codec.
fuzz-summary:
	$(GO) test -run '^$$' -fuzz=FuzzSummaryTable -fuzztime=$(FUZZTIME) ./internal/cluster

# fuzz-impaired round-trips fuzzer-proposed DNS questions through a
# lossy, duplicating link with the retrying client: the exchange must
# complete exactly once, whatever the fault model does to the wire.
fuzz-impaired:
	$(GO) test -run '^$$' -fuzz=FuzzImpairedCodec -fuzztime=$(FUZZTIME) ./internal/dns

# fuzz-wire feeds adversarial byte streams to the control plane's frame
# decoder: every input must round-trip canonically or be rejected with
# a typed error — never panic, never mis-frame the stream.
fuzz-wire:
	$(GO) test -run '^$$' -fuzz=FuzzWireCodec -fuzztime=$(FUZZTIME) ./internal/wire

# fuzz-store plays fuzzer-proposed op streams — immediate and across
# interleaved transactions, all three reconcilers, quotas, watches —
# against the store and the deep-clone reference model it replaced:
# every answer, verdict, counter, event and the final tree must agree.
fuzz-store:
	$(GO) test -run '^$$' -fuzz=FuzzStoreModel -fuzztime=$(FUZZTIME) ./internal/xenstore

# fuzz-tcb feeds fuzzer-proposed strings to the Synjitsu handoff
# parser: never a panic, the same accept/reject and fields as the
# strings.Fields parser it replaced, and parse(encode(x)) == x with
# encode byte-equal to the fmt-based one.
fuzz-tcb:
	$(GO) test -run '^$$' -fuzz=FuzzTCBCodec -fuzztime=$(FUZZTIME) ./internal/netstack

# fuzz-engine plays fuzzer-proposed schedules — After/At/Cancel through
# live, fired and stale handles, Step/RunUntil/RunFor/Run — on the
# two-tier scheduler and on the one-heap engine it replaced, and holds
# clock, counters and firing order equal after every operation.
fuzz-engine:
	$(GO) test -run '^$$' -fuzz=FuzzEngineModel -fuzztime=$(FUZZTIME) ./internal/sim

# fuzz-lifecycle plays fuzzer-proposed streams of lifecycle verbs and
# raw-SYN fetches on an exact-fit board, without and with a disk, and a
# roomy board with a disk, then checks the activation's books at
# quiescence: every OnReady once, no lost client, no destroy or parked
# connection left, memory intact.
fuzz-lifecycle:
	$(GO) test -run '^$$' -fuzz=FuzzLifecycle -fuzztime=$(FUZZTIME) ./internal/core

# bench runs the full evaluation + hot-path microbenches, and the layers'
# own benches beside them ($(BENCH_PKGS); benchjson files each under its
# package's layer), with -benchmem and records the numbers as JSON. The
# experiment benches double as the determinism record: their
# ReportMetric values must not move between runs with the same seed.
BENCH_PKGS ?= . ./internal/sim ./internal/xenstore ./internal/xen ./internal/netsim ./internal/netstack ./internal/dns ./internal/wire ./internal/obs ./internal/cluster ./internal/cc ./internal/conduit ./internal/blockdev
bench:
	$(GO) test -bench=. -benchmem -run '^$$' $(BENCH_PKGS) | tee /dev/stderr | $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# bench-gate checks a fresh record against the committed one on what a
# seeded simulation repeats: a path at zero allocs/op stays there,
# allocs/op may not rise more than 0.5 %, every custom metric is equal.
# ns/op is printed, never judged — bench/run.sh pairs are for that.
bench-gate:
	$(MAKE) bench BENCH_OUT=bench-ci.json
	$(GO) run ./cmd/benchjson -compare BENCH.json bench-ci.json

# bench-pair is the interleaved base/head comparison of the repository
# benchmark (choosing-metrics §8): BASE is unpacked (git archive — no
# worktree to register or prune) under a mktemp -d, each tree builds its
# own bench/run.sh into its own .bench_build/, N pairs run alternating
# which side goes first, and benchjson -pairs reads the two files of
# result lines. Each side of a pair also makes one 2 s --trace 1 run,
# whose host.peak_heap_mb and host.alloc_kb_per_req benchjson reports
# after the table as medians and quartiles, without a verdict. W may
# list several workloads: each runs its N pairs in turn into its own
# files and gets its own table, printed as it finishes, so "did any
# other workload get worse" is one command. Run nothing else meanwhile;
# the copy and both build directories are removed on exit.
#   make bench-pair BASE=<commit> W="<workload> ..." [N=10 SEED=3 SECONDS=20]
#   make bench-pair BASE=<commit> W="cold_storm warm_fetch fed_skew operator_wire"
N ?= 10
SEED ?= 3
SECONDS ?= 20
bench-pair:
	@test -n "$(BASE)" -a -n "$(W)" || { echo "usage: make bench-pair BASE=<commit> W=\"<workload> ...\" [N=$(N) SEED=$(SEED) SECONDS=$(SECONDS)]"; exit 2; }
	@tmp=$$(mktemp -d); trap 'chmod -R u+w $$tmp; rm -rf $$tmp .bench_build' EXIT; \
	mkdir $$tmp/base && git archive $(BASE) | tar -x -C $$tmp/base; \
	side() { (cd $$1 && bash bench/run.sh --workload $$3 --seed $(SEED) --seconds $(SECONDS) --trace 0 2>/dev/null | tail -1) >> $$tmp/$$3.$$2.jsonl; \
		(cd $$1 && bash bench/run.sh --workload $$3 --seed $(SEED) --seconds 2 --trace 1 2>/dev/null | tail -1) >> $$tmp/$$3.$$2.traced.jsonl; }; \
	for w in $(W); do \
		for i in $$(seq $(N)); do \
			if [ $$((i % 2)) = 1 ]; then side $$tmp/base parent $$w; side . change $$w; else side . change $$w; side $$tmp/base parent $$w; fi; \
			echo "$$w: pair $$i of $(N)" >&2; \
		done; \
		echo "== $$w (seed $(SEED), $(N) pairs of $(SECONDS) s)"; \
		$(GO) run ./cmd/benchjson -pairs $$tmp/$$w.parent.jsonl $$tmp/$$w.change.jsonl $$tmp/$$w.parent.traced.jsonl $$tmp/$$w.change.traced.jsonl; \
	done

# allocs-gate holds the end-to-end numbers of the repository benchmark
# that a shared runner can: host_allocs_per_req and the bytes behind
# them, host.alloc_kb_per_req, repeat to four digits per seed, whatever
# the box is doing. Each workload runs 2 s at seed 3 twice — --trace 0
# prints the count, --trace 1 the bytes — and may not allocate more
# than 0.5 % above its line of the committed ALLOCS.json on either;
# fewer passes and asks for `make allocs-record`, which rewrites the file
# (do that in the PR that means to move them). host.peak_heap_mb is
# printed beside them and never judged: it wanders a few per cent run
# to run.
ALLOCS_WORKLOADS ?= cold_storm warm_fetch fed_skew operator_wire
bench_line = bash bench/run.sh --workload $(1) --seed 3 --seconds 2 --trace $(2) 2>/dev/null | tail -1
value_of = sed -n 's/.*"$(1)":{"value":\([0-9.e+-]*\).*/\1/p'
recorded = sed -n 's/.*"workload":"'$(1)'".*"$(2)":\([0-9.e+-]*\).*/\1/p' ALLOCS.json
allocs-record:
	@for w in $(ALLOCS_WORKLOADS); do \
		n=$$($(call bench_line,$$w,0) | $(call value_of,host_allocs_per_req)); \
		kb=$$($(call bench_line,$$w,1) | $(call value_of,host.alloc_kb_per_req)); \
		test -n "$$n" -a -n "$$kb" || { echo "allocs-record: $$w printed no host_allocs_per_req or host.alloc_kb_per_req" >&2; exit 1; }; \
		printf '{"workload":"%s","seed":3,"host_allocs_per_req":%s,"host_alloc_kb_per_req":%s}\n' $$w $$n $$kb; \
	done > ALLOCS.json.tmp
	@mv ALLOCS.json.tmp ALLOCS.json && cat ALLOCS.json

allocs-gate:
	@fail=0; for w in $(ALLOCS_WORKLOADS); do \
		want=$$($(call recorded,$$w,host_allocs_per_req)); wantkb=$$($(call recorded,$$w,host_alloc_kb_per_req)); \
		got=$$($(call bench_line,$$w,0) | $(call value_of,host_allocs_per_req)); \
		traced=$$($(call bench_line,$$w,1)); \
		kb=$$(echo "$$traced" | $(call value_of,host.alloc_kb_per_req)); heap=$$(echo "$$traced" | $(call value_of,host.peak_heap_mb)); \
		test -n "$$want" -a -n "$$got" -a -n "$$wantkb" -a -n "$$kb" || { echo "allocs-gate: $$w: no number (recorded '$$want' allocs '$$wantkb' KiB, measured '$$got' allocs '$$kb' KiB)"; fail=1; continue; }; \
		awk -v w=$$w -v got=$$got -v want=$$want -v kb=$$kb -v wantkb=$$wantkb -v heap=$$heap ' \
			function verdict(got, want) { return got > want * 1.005 ? "WORSE" : got < want * 0.995 ? "better" : "ok" } \
			BEGIN { \
			n = verdict(got, want); b = verdict(kb, wantkb); \
			printf "allocs-gate: %-14s %10.3f allocs/req, recorded %10.3f  %-6s %8.3f KiB/req, recorded %8.3f  %-6s peak heap %5.2f MiB\n", w, got, want, n, kb, wantkb, b, heap; \
			if (n == "better" || b == "better") printf "allocs-gate: %-14s better than recorded: re-record (make allocs-record)\n", w; \
			exit n == "WORSE" || b == "WORSE" }' || fail=1; \
	done; exit $$fail

# ci mirrors .github/workflows/go.yml so contributors run the exact
# gate locally before pushing.
ci: vet fmt-check staticcheck actionlint build test bench-check race
	$(MAKE) fuzz FUZZTIME=30s
	$(MAKE) bench-gate
	$(MAKE) allocs-gate
