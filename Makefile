GO ?= go

# `make` = the full CI gate: static checks, build, race-enabled tests,
# and the reduced-scale golden-figure check.
.PHONY: all
all: check

.PHONY: check
check: vet lint build race alloc golden claims atlas-check liveness-check fuzz-smoke fabric-smoke

# vet also fails when any Go file is not gofmt-clean.
.PHONY: vet
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting (run gofmt -w):"; echo "$$unformatted"; exit 1; \
	fi

# lint runs the repo's own analyzers (internal/lint): exhauststate,
# determinism, threaddiscipline, cyclehygiene, observerpurity,
# atlasdrift. Suppress a finding at the site with
# `//simlint:allow <analyzer>: <reason>`; see README.
.PHONY: lint
lint:
	$(GO) run ./cmd/simlint ./...

# atlas regenerates the golden transition atlases
# (docs/atlas/{mesi,denovo}.json) and the Table-1-style complexity
# summary (docs/atlas/complexity.md) from the controller source. Run it
# after any deliberate protocol change, then review the diff.
.PHONY: atlas
atlas:
	$(GO) run ./cmd/protocov -mode extract

# atlas-check is the CI gate over the atlas: goldens must match the
# source byte-for-byte (check), every tuple must be exercised by the
# kernel/stress grid or annotated //atlas:unreachable (cover), and the
# atlas must map cleanly onto the internal/verify abstract models
# through docs/atlas/absmap.json (crosscheck).
.PHONY: atlas-check
atlas-check:
	$(GO) run ./cmd/protocov -mode all

# liveness regenerates the protocol-liveness certificate
# (docs/liveness/waitgraph.json): the waits-for atlas over the mesi and
# denovo controllers with every liveness obligation (park wakeups,
# request answering, per-class cycle freedom, bounded backoff, stale
# ownership retirement) and its discharge site. Run it after any
# deliberate protocol change, then review the diff.
.PHONY: liveness
liveness:
	$(GO) run ./cmd/protolive -mode extract

# liveness-check is the CI gate over the liveness certificate: the
# golden must match the source byte-for-byte and the certifier must
# report zero unassumed findings. Audit a deliberate escape at the site
# with `//protolive:assume(reason)`; see docs/analysis.md.
.PHONY: liveness-check
liveness-check:
	$(GO) run ./cmd/protolive -mode check

# analyze runs the full static-analysis suite (the repo's own analyzers
# plus the two checked-in certificates) with a per-analyzer wall-time
# summary — the one target behind the CI `analyze` job.
.PHONY: analyze
analyze:
	@fail=0; \
	for t in lint atlas-check liveness-check; do \
		start=$$(date +%s); \
		if $(MAKE) --no-print-directory $$t; then status=ok; else status=FAIL; fail=1; fi; \
		end=$$(date +%s); \
		echo "analyze: $$t $$status ($$((end-start))s)"; \
	done; \
	exit $$fail

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# alloc runs the allocation-budget tests (engine schedule, network send,
# L1 hits, the MESI and DeNovo miss paths) and the memory budgets (the
# memory image's footprint per written line, the live heap a finished
# paper-scale 16-core Herlihy stack run keeps) without the race
# detector: its instrumentation allocates, so under `race` they skip.
.PHONY: alloc
alloc:
	$(GO) test -count=1 -run 'Allocates?Nothing|StoreFootprint|RetainedHeap' ./internal/...

# exp-smoke drives the kill-and-resume guarantee end to end through the
# real CLI: interrupt a grid with -stop-after, verify the resumed
# session re-executes only the missing runs, and check the merged CSV is
# byte-identical to an uninterrupted single-worker run.
.PHONY: exp-smoke
exp-smoke:
	rm -rf /tmp/denovosync-exp-smoke && mkdir -p /tmp/denovosync-exp-smoke
	$(GO) build -o /tmp/denovosync-exp-smoke/exp ./cmd/exp
	/tmp/denovosync-exp-smoke/exp run -fig fig3 -cores 16 -scale 25 \
		-journal /tmp/denovosync-exp-smoke/grid.jsonl -stop-after 4
	/tmp/denovosync-exp-smoke/exp status -fig fig3 -cores 16 -scale 25 \
		-journal /tmp/denovosync-exp-smoke/grid.jsonl
	/tmp/denovosync-exp-smoke/exp run -fig fig3 -cores 16 -scale 25 \
		-journal /tmp/denovosync-exp-smoke/grid.jsonl
	/tmp/denovosync-exp-smoke/exp merge -fig fig3 -cores 16 -scale 25 \
		-journal /tmp/denovosync-exp-smoke/grid.jsonl -o /tmp/denovosync-exp-smoke/resumed.csv
	/tmp/denovosync-exp-smoke/exp run -fig fig3 -cores 16 -scale 25 -workers 1 -quiet \
		-journal /tmp/denovosync-exp-smoke/full.jsonl -csv /tmp/denovosync-exp-smoke/full.csv
	cmp /tmp/denovosync-exp-smoke/resumed.csv /tmp/denovosync-exp-smoke/full.csv
	@echo "exp-smoke: resumed CSV is byte-identical to the uninterrupted run"

# chaos-smoke drives the chaos engine end to end through the real CLI:
# a small seed grid across all four protocol configs (every run is
# perturbed, invariant-monitored, and differentially checked against its
# unperturbed baseline), a forced-watchdog livelock that must abort with
# a structured diagnostic, a shrink of that failure to a minimal
# replayable reproducer, and a kill-and-resume byte-identity check on
# the verdict CSV.
.PHONY: chaos-smoke
chaos-smoke:
	rm -rf /tmp/denovosync-chaos-smoke && mkdir -p /tmp/denovosync-chaos-smoke
	$(GO) build -o /tmp/denovosync-chaos-smoke/chaos ./cmd/chaos
	/tmp/denovosync-chaos-smoke/chaos run -kernels tatas-counter,bar-tree \
		-seeds 4 -iters 4 -quiet -csv /tmp/denovosync-chaos-smoke/full.csv
	/tmp/denovosync-chaos-smoke/chaos watchdog-demo > /dev/null
	/tmp/denovosync-chaos-smoke/chaos shrink -kernel bar-tree -config DS -iters 4 -seed 2 \
		-fault blackhole -fault-msg 60 -watchdog 100000 -o /tmp/denovosync-chaos-smoke/repro.json
	/tmp/denovosync-chaos-smoke/chaos replay /tmp/denovosync-chaos-smoke/repro.json
	/tmp/denovosync-chaos-smoke/chaos run -kernels tatas-counter,bar-tree \
		-seeds 4 -iters 4 -quiet -journal /tmp/denovosync-chaos-smoke/grid.jsonl -stop-after 6
	/tmp/denovosync-chaos-smoke/chaos run -kernels tatas-counter,bar-tree \
		-seeds 4 -iters 4 -quiet -journal /tmp/denovosync-chaos-smoke/grid.jsonl \
		-csv /tmp/denovosync-chaos-smoke/resumed.csv
	cmp /tmp/denovosync-chaos-smoke/resumed.csv /tmp/denovosync-chaos-smoke/full.csv
	@echo "chaos-smoke: sweep clean, watchdog fired, failure shrunk + replayed, resume byte-identical"

# Golden checks: figure CSVs (Figs. 3-7 and the nine ablations at
# reduced scale, built through exp.Reproduce, with the 13 paper claims
# that hold at that scale gated) and the cycle-exact determinism
# fingerprints. Regenerate deliberately with `make golden-update` after
# an intentional simulator change.
.PHONY: golden
golden:
	$(GO) test ./internal/harness -run TestGoldenFigures -count=1
	$(GO) test ./internal/machine -run 'TestDeterminism|TestBatchingMatchesEager' -count=1

# golden-update also regenerates the paper-scale record (results.csv and
# experiments_raw.txt, ~1 min on 2 CPUs), so a deliberate timing change
# refreshes it with the goldens; review all of them in the diff.
.PHONY: golden-update
golden-update:
	$(GO) test ./internal/harness -run TestGoldenFigures -count=1 -update
	$(GO) test ./internal/machine -run TestDeterminismGolden -count=1 -update
	rm -rf /tmp/denovosync-golden-update && mkdir -p /tmp/denovosync-golden-update
	$(GO) run ./cmd/paperbench -csv /tmp/denovosync-golden-update/results.csv > /dev/null
	cp /tmp/denovosync-golden-update/results.csv results.csv
	$(GO) run ./cmd/report -csv results.csv -full > experiments_raw.txt

# paper-check reproduces Figures 3-7 at paper scale (~1 min on 2 CPUs)
# and requires the CSV to equal the checked-in results.csv byte for
# byte, so the record `make claims` gates is the simulator's output.
.PHONY: paper-check
paper-check:
	rm -rf /tmp/denovosync-paper-check && mkdir -p /tmp/denovosync-paper-check
	$(GO) run ./cmd/paperbench -csv /tmp/denovosync-paper-check/results.csv > /tmp/denovosync-paper-check/paperbench.txt
	cmp /tmp/denovosync-paper-check/results.csv results.csv
	@echo "paper-check: the paper-scale CSV is byte-identical to results.csv"

# claims re-evaluates the paper's qualitative claims against the
# checked-in paper-scale results (no simulation, ~1s) and fails when any
# claim deviates or none is evaluated.
.PHONY: claims
claims:
	$(GO) run ./cmd/report -csv results.csv -claims

# Engine + handshake micro-benchmarks (compare against BENCH_baseline.json
# on the same machine; see EXPERIMENTS.md, "Benchmark workflow").
.PHONY: bench
bench:
	$(GO) test ./internal/sim ./internal/cpu -run '^$$' -bench 'BenchmarkEngine|BenchmarkHandshake' -benchmem
	$(GO) test . -run '^$$' -bench BenchmarkEngineThroughput -benchmem

# bench-check re-runs every benchmark recorded in BENCH_baseline.json and
# fails on a tolerance-exceeding ns/op regression. Baselines are
# machine-dependent: gate on the baseline machine, or re-anchor first.
.PHONY: bench-check
bench-check:
	$(GO) run ./cmd/benchcheck

# bench-smoke gates the host-time benchmark module (bench/, its own Go
# module): its tests under the race detector, then one pass of every
# workload at each of seeds 1, 2 and 3 with every run's simulated results
# checked against bench/testdata/digests.json (115 cells per seed).
# run.sh exits non-zero on any failed run, so a behaviour drift at any of
# the three seeds fails the target.
.PHONY: bench-smoke
bench-smoke:
	cd bench && $(GO) test -race ./...
	for seed in 1 2 3; do bash bench/run.sh -seed $$seed -seconds 0 || exit 1; done

# bench-baseline prints the numbers in BENCH_baseline.json format worth
# pasting in after a deliberate engine change (higher -count for stability).
.PHONY: bench-baseline
bench-baseline:
	$(GO) test ./internal/sim ./internal/cpu -run '^$$' -bench 'BenchmarkEngine|BenchmarkHandshake' -count=5
	$(GO) test . -run '^$$' -bench BenchmarkEngineThroughput -count=5

# fuzz-smoke is the scenario-fuzzer CI gate (~seconds): replay the
# checked-in corpus (testdata/corpus), require every entry to reproduce
# its recorded result digest exactly, and require the corpus alone to
# re-reach every atlas tuple the tree covers (everything not annotated
# //atlas:unreachable). A digest drift means simulator behavior changed
# without the corpus being re-recorded; an uncovered tuple means the
# corpus lost a race window.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) run ./cmd/scenfuzz cover

# scenfuzz-smoke drives the fuzzer end to end through the real CLI: a
# tiny seeded campaign from the checked-in corpus, interrupted with
# -stop-after and resumed with the identical command (the journal dedups
# completed scenarios by run key), then compared byte-for-byte against
# an uninterrupted run of the same campaign.
.PHONY: scenfuzz-smoke
scenfuzz-smoke:
	rm -rf /tmp/denovosync-scenfuzz-smoke && mkdir -p /tmp/denovosync-scenfuzz-smoke
	$(GO) build -o /tmp/denovosync-scenfuzz-smoke/scenfuzz ./cmd/scenfuzz
	/tmp/denovosync-scenfuzz-smoke/scenfuzz run -seed 1 -batches 2 -batch-size 4 \
		-out /tmp/denovosync-scenfuzz-smoke/killed -stop-after 10 -quiet || true
	/tmp/denovosync-scenfuzz-smoke/scenfuzz run -seed 1 -batches 2 -batch-size 4 \
		-out /tmp/denovosync-scenfuzz-smoke/killed -quiet
	/tmp/denovosync-scenfuzz-smoke/scenfuzz run -seed 1 -batches 2 -batch-size 4 \
		-out /tmp/denovosync-scenfuzz-smoke/full -quiet
	mkdir -p /tmp/denovosync-scenfuzz-smoke/killed/corpus /tmp/denovosync-scenfuzz-smoke/full/corpus \
		/tmp/denovosync-scenfuzz-smoke/killed/findings /tmp/denovosync-scenfuzz-smoke/full/findings
	diff -r /tmp/denovosync-scenfuzz-smoke/killed/corpus /tmp/denovosync-scenfuzz-smoke/full/corpus
	diff -r /tmp/denovosync-scenfuzz-smoke/killed/findings /tmp/denovosync-scenfuzz-smoke/full/findings
	@echo "scenfuzz-smoke: killed-and-resumed campaign outputs are byte-identical to the uninterrupted run"

# fabric-smoke is the seconds-scale gate over the distributed experiment
# fabric (run inside `make check`): a real grid served over loopback
# HTTP to two workers, with a worker killed mid-grid (journaled locally,
# nothing handed off) and restarted, an injected dropped + duplicated
# completion, and a coordinator restart from its journal — the merged
# figure CSV must be byte-identical to a serial single-machine run, with
# zero determinism findings. The in-package fault battery (lease expiry,
# partitioned workers, conflict escalation) runs under `make race`.
.PHONY: fabric-smoke
fabric-smoke:
	$(GO) run ./cmd/fabric smoke

# nightly-fuzz is the scheduled long-budget campaign (also runnable
# locally): seeds from the checked-in corpus, writes accepted candidates
# and findings under ./scenfuzz.out for triage.
.PHONY: nightly-fuzz
nightly-fuzz:
	$(GO) run ./cmd/scenfuzz run -seed 1 -batches 24 -batch-size 32 -out scenfuzz.out

# Short fuzzing passes over the engine's dispatch order, the paged
# address table, the memory image, the DeNovoSync backoff-counter and
# MSHR parking properties, plus the scenario/trace decoder trust
# boundaries (seed corpus always runs under `make test`).
.PHONY: fuzz
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEngineOrder -fuzztime 30s
	$(GO) test ./internal/proto -run '^$$' -fuzz FuzzPages -fuzztime 30s
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzStore -fuzztime 30s
	$(GO) test ./internal/denovo -fuzz FuzzBackoffCounterWrap -fuzztime 30s
	$(GO) test ./internal/denovo -fuzz FuzzMSHRSyncParking -fuzztime 30s
	$(GO) test ./internal/fuzz -fuzz FuzzScenarioDecode -fuzztime 30s
	$(GO) test ./internal/trace -fuzz FuzzTraceIngest -fuzztime 30s
