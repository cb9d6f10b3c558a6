# Development targets for the SHRIMP message-passing simulation.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race vet lint fuzz trace-smoke svm app partition chaos pool snap-smoke meshscale meshscale-smoke bench check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs shrimplint, the project's determinism-and-discipline checker
# (see DESIGN.md "Determinism contract"). Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/shrimplint ./...

# fuzz gives the XDR round-trip, raw-decode, trace, and mesh packet-codec
# targets a brief shake; the corpus accumulates in the Go build cache.
fuzz:
	$(GO) test -run NONE -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/xdr
	$(GO) test -run NONE -fuzz FuzzDecodeRaw -fuzztime $(FUZZTIME) ./internal/xdr
	$(GO) test -run NONE -fuzz FuzzChromeTrace -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run NONE -fuzz FuzzPacketCodec -fuzztime $(FUZZTIME) ./internal/mesh

# trace-smoke exercises the observability layer end to end: run the same
# traced scenario twice and require byte-identical Chrome trace files —
# traces are part of the determinism contract.
trace-smoke:
	$(GO) run ./cmd/shrimpbench -fig fig3 -trace /tmp/shrimp-trace-a.json
	$(GO) run ./cmd/shrimpbench -fig fig3 -trace /tmp/shrimp-trace-b.json
	cmp /tmp/shrimp-trace-a.json /tmp/shrimp-trace-b.json
	@echo "trace-smoke: traces byte-identical"

# svm runs the shared-virtual-memory package tests and the SVM-vs-NX
# Jacobi comparison (the EXPERIMENTS.md table).
svm:
	$(GO) test ./internal/svm ./internal/bench -run 'TestSVM|TestJacobi|Test.*Region|TestFetch|TestLock|TestNotices|TestManager|TestDeterminism|TestSurvives|TestEightNodes'
	$(GO) run ./cmd/shrimpbench -svm

# app runs the serving-subsystem tests (sharded KV + load generator) and
# the acceptance scenario: the offered-load ramp plus the million-session
# 8-node run with a mid-load primary crash, twice under the replay digest.
app:
	$(GO) test ./internal/app/...
	$(GO) run ./cmd/shrimpbench -app

# partition runs the link-partition cells standalone: minority group,
# isolated primary, asymmetric cut, flapping link — each severed and
# healed mid-load, with epoch-fence counters, quorum-veto counts, and
# acked-write durability re-verified, twice under the replay digest.
partition:
	$(GO) run ./cmd/shrimpbench -partition

# pool runs the snapshot & warm-pool suite: wall-clock entries for world
# capture, encode, and copy-on-write cloning, the boot-vs-pooled app-serve
# world-setup comparison (must amortize at least 5x below a fresh boot),
# and the elasticity scenarios (autoscale demand trace, rolling restarts
# served from snapshot clones). Exits nonzero if a cell fails or the 5x
# bar is missed.
pool:
	$(GO) run ./cmd/shrimpbench -pool

# snap-smoke is the snapshot-determinism gate: a restored world must
# produce a byte-identical replay digest to the live world it was cloned
# from — the cheap capture/restore/replay cell plus the full
# scenario-by-scenario equivalence matrix (figures, SVM, serving stack,
# chaos, crash recovery, partition).
snap-smoke:
	$(GO) test ./internal/snap
	$(GO) test -run 'TestSnapshotEquivalenceMatrix|TestElastic' ./internal/bench

# meshscale runs the big-mesh scaling study: 64, 256, and 1024 nodes on
# k-ary n-cube geometries (square 2-D meshes, a 3-D cube at 1024), with
# in-network combining off and on. Every cell runs twice and must replay
# byte-identically; at 256+ nodes combining must beat the software
# collectives. Exits nonzero otherwise. This is the EXPERIMENTS.md source.
meshscale:
	$(GO) run ./cmd/shrimpbench -meshscale

# meshscale-smoke is the fast digest-stability gate over tiny geometries
# (2x2 and 2x2x2, both combining modes); it rides in every `make check`.
meshscale-smoke:
	$(GO) run ./cmd/shrimpbench -meshsmoke

# chaos runs the fault-injection soak: every figure scenario under the
# standard fault plans (lossy links with retransmission, NIC freeze
# storms, a mid-transfer node crash, link partitions against the serving
# stack), checking termination, acknowledged-data integrity, and
# replay-stable digests, plus the degraded-mode Fig 5 table. Exits
# nonzero if any cell fails.
chaos:
	$(GO) run ./cmd/shrimpbench -faults

# bench runs every Go microbenchmark with allocation stats: the event-core
# hot paths (churn, timer arm/cancel, proc ping-pong), the memory bulk
# moves, the end-to-end figure/chaos drivers, and a whole-repo shrimplint
# pass. End-to-end and per-layer host cost is the perfbench module's job:
# bash perfbench/run.sh --workload figures|serve|collectives.
bench:
	$(GO) test -run NONE -bench . -benchmem ./internal/sim ./internal/mem ./internal/bench ./internal/lint .

# check is the full gate CI runs: build, vet, lint, race-enabled tests,
# trace determinism, snapshot determinism, mesh-scaling digest stability,
# and the chaos soak.
check: build vet lint race trace-smoke snap-smoke meshscale-smoke chaos

clean:
	$(GO) clean ./...
