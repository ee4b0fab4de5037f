GO ?= go

.PHONY: all build test vet fmt-check staticcheck race loc examples-smoke bench-smoke bench-compare bench-test bench-run-smoke bench-probe-smoke profile smoke-ringmeshd fuzz-smoke results-check ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any Go file is not gofmt-clean (.bench_build is the
# benchmark's module cache, not our source).
fmt-check:
	@test -z "$$(gofmt -l . | grep -v .bench_build)" || \
		{ echo "gofmt -l reports:"; gofmt -l . | grep -v .bench_build; exit 1; }

# Skipped with a note when the tool isn't installed, so `make ci`
# works on a bare toolchain; CI installs it explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test Go lines per package and for the whole repo, outside the
# benchmark module — the number ROADMAP aim 2 tracks. A report, never a
# gate.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# Run every program under examples/ once: README sends users to them,
# and a build alone does not show that they still run (about 7 s).
examples-smoke:
	@for d in examples/*/; do echo "examples-smoke: $$d"; $(GO) run "./$$d" >/dev/null || exit 1; done

# A short benchmark pass that exercises the engine fast paths without
# running the full figure sweeps: both models, the 3:3:8 ring and the
# 11x11 mesh at the paper's high load, the ring at low load (the
# busy-station set) and with a double-speed global ring (its second
# step inside the ring's own tick), the 11x11 mesh with 1-flit buffers that fig16 runs (every worm
# stalls on its downstream space check), and the geometry under the analytic tier (estimates, the Table
# 2 pick, the 11x11 build), plus one op each of the whole analytic
# triage and of the ring-sim and mesh-sim workloads and one round of
# the paper-figs workload.
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkEngineStep|BenchmarkSimRing24|BenchmarkSimMesh16|BenchmarkSimRing72$$|BenchmarkSimMesh121$$|BenchmarkSimMesh121OneFlit|BenchmarkSimRing72LowLoad|BenchmarkSimRing72DoubleSpeed|BenchmarkAnalyticEstimate|BenchmarkRingTopologyFor|BenchmarkNewSystemMesh121' -benchtime=100x .
	$(GO) test -run=NONE -bench='BenchmarkAnalyticTriage$$|BenchmarkRingSimOp$$|BenchmarkMeshSimOp$$|BenchmarkPaperFigsRound$$' -benchtime=1x .

# The perf gate: compare the two highest-numbered rows of the committed
# ledger (ci/ledger/BENCH_<pr>.json, each written on the reference box
# by `bash bench/run.sh -record ci/ledger/BENCH_<pr>.json -repeat 3`).
# Nothing is timed here, so the verdict is the same on every machine:
# exit 1 on a metric worse than its bound or a differing simulated
# output, 2 when the rows carry different machine fingerprints.
bench-compare:
	@set -- $$(ls ci/ledger/BENCH_*.json | sort -t_ -k2 -n | tail -2); \
	test $$# -eq 2 || { echo "bench-compare: need two rows in ci/ledger/"; exit 1; }; \
	echo "bench-compare: $$1 -> $$2"; \
	bash bench/run.sh -compare "$$1" "$$2"

# The benchmark under bench/ is a module of its own, so `go test ./...`
# at the root never descends into it: vet and test it here, and run
# every workload once at 1/50 length as a functional check.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench-run-smoke:
	bash bench/run.sh -all -smoke

# The benchmark's per-layer probes fail unless the 8x8 mesh engages the
# worker gang at Workers=2 (bench/layers.go, sim.par2_*). Run them once
# at smoke length, so a change cannot shrink the parallel engine past
# what the benchmark needs without CI saying so.
bench-probe-smoke:
	@out=$$(bash bench/run.sh -workload mesh-sim -trace 1 -smoke) || exit 1; \
	echo "$$out" | grep '^mesh-sim sim\.par2_speedup_mesh8x8 ' || \
		{ echo "bench probes no longer report sim.par2_speedup_mesh8x8"; exit 1; }

# CPU- and heap-profile one benchmark — by default the whole-system ring
# tick, long enough for a few seconds of samples; e.g.
# `make profile BENCH=BenchmarkSimMesh121 BENCHTIME=100000x`. Inspect with
# `go tool pprof ringmesh.test cpu.prof`. For live profiles of the serving
# daemon, boot it with -pprof and fetch /debug/pprof/profile instead.
BENCH ?= BenchmarkSimRing72
BENCHTIME ?= 300000x
profile:
	$(GO) test -run=NONE -bench='^$(BENCH)$$' -benchtime=$(BENCHTIME) \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "profiles written: cpu.prof mem.prof (go tool pprof ringmesh.test <file>)"

# Drive the serving daemon end to end over HTTP, in five stages: cache
# hit, durability across kill -9, overload shedding, journal replay and
# `auto` fidelity.
smoke-ringmeshd:
	bash ci/smoke_ringmeshd.sh

# A short native-fuzz pass over the hostile-input parsers: the
# job-journal record decoder and the facade's Config (resolve, cache
# key, estimate, a short build and step) must never panic. The seed
# corpora also run as plain tests in `make test`; this target
# additionally mutates for a few seconds per target.
fuzz-smoke:
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 5s
	$(GO) test . -run '^$$' -fuzz FuzzConfig -fuzztime 5s

# Regenerate every table and figure at the paper-fidelity schedule and
# require results/ to be byte-current (analytic-bounds.csv belongs to
# internal/fidelity, not to cmd/experiments). About 2.5 minutes on two
# cores, so ci.yml runs it as its own step and `make ci` leaves it out.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments -all -out "$$tmp" >/dev/null && \
	diff -r -x analytic-bounds.csv results "$$tmp"

# The gate run by .github/workflows/ci.yml, step for step, with two
# deliberate differences: `race` stands for ci.yml's `test` step (the
# same tests; ci.yml runs the race pass as a job of its own to keep the
# main job quick), and results-check (2.5 minutes) is left to ci.yml.
ci: vet fmt-check staticcheck build loc race examples-smoke fuzz-smoke bench-smoke bench-compare bench-test bench-run-smoke bench-probe-smoke smoke-ringmeshd
