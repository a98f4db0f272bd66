# Convenience targets; everything is plain dune underneath.

all:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer

bench-quick:
	dune exec bench/main.exe

bench-full:
	dune exec bench/main.exe -- all --ops 20000 --repeats 3

# Machine-readable benchmark records (ops/s, CAS/op, minor words/op)
# under results/, stamped with the git revision: micro and Figs. 4-6. micro runs with --obs
# so the record gains the telemetry block (pendingness percentiles,
# mean splice batch, elimination hit rate). Every record is then
# schema-checked.
bench-json:
	mkdir -p results
	dune exec bench/main.exe -- micro --obs --json results/BENCH_micro.json
	dune exec bench/main.exe -- fig4 --threads 1,2 --ops 200000 --repeats 3 \
		--json results/BENCH_fig4.json
	dune exec bench/main.exe -- fig5 --threads 1,2 --ops 200000 --repeats 3 \
		--json results/BENCH_fig5.json
	dune exec bench/main.exe -- fig6 --threads 1,2 --ops 20000 --repeats 3 \
		--json results/BENCH_fig6.json
	dune exec bin/validate_bench.exe -- results/BENCH_micro.json --bench micro
	dune exec bin/validate_bench.exe -- results/BENCH_fig4.json --bench fig4
	dune exec bin/validate_bench.exe -- results/BENCH_fig5.json --bench fig5
	dune exec bin/validate_bench.exe -- results/BENCH_fig6.json --bench fig6

# Flight-recorder capture: run the trace probe with the recorder on and
# export a Chrome trace_event file (load in ui.perfetto.dev), then
# schema-check it.
bench-trace:
	mkdir -p results
	dune exec bench/main.exe -- trace --trace results/TRACE_probe.json
	dune exec bin/validate_trace.exe -- results/TRACE_probe.json \
		--min-domains 2 --require future.created --require splice. \
		--require elim. --require combiner.

# Chaos suite: the whole test tree under seeded schedule perturbation
# (FLDS_FAULTS arms every injection point with delays/yields — never
# kills — so the suite must still be green), then the chaos benchmark
# reporting worker kills and combiner-lease takeovers.
CHAOS_SEED ?= 2014
chaos:
	FLDS_FAULTS=$(CHAOS_SEED) dune runtest --force --no-buffer
	dune exec bench/main.exe -- chaos --quick --seed $(CHAOS_SEED)

# Machine-readable chaos run: kill-enabled seeded faults, watchdog on,
# recording killed / takeovers / retired / poisoned / recovered per
# (impl, threads) cell under results/, then schema-checked.
bench-chaos-json:
	mkdir -p results
	dune exec bench/main.exe -- chaos --ops 2000 --repeats 4 \
		--threads 1,2,4 --seed $(CHAOS_SEED) \
		--json results/BENCH_chaos.json
	dune exec bin/validate_bench.exe -- results/BENCH_chaos.json --bench chaos

# Machine-readable sharded-store run: the perf panel (centralized weak
# map vs the sharded store) plus scripted owner kills at each transfer
# protocol step (shard.grant / shard.ship / shard.ack), recording the
# transfer counters (requests/ships/acks/recovers/poisoned) per cell,
# then schema-checked.
bench-shard-json:
	mkdir -p results
	dune exec bench/main.exe -- shard --ops 2000 --repeats 2 \
		--threads 1,2,4 --seed $(CHAOS_SEED) \
		--json results/BENCH_shard.json
	dune exec bin/validate_bench.exe -- results/BENCH_shard.json --bench shard

# Machine-readable open-loop service run: the saturation sweep (offered
# load x backend, Poisson arrivals, admission controller live) plus the
# bursty chaos panel with scripted controller/owner kills. The
# --assert-service gate makes the exit status the claim: books balance,
# zero sheds below the knee, admitted-op sojourn p999 bounded even past
# it. validate_bench re-verifies those gates offline on the records.
bench-service-json:
	mkdir -p results
	dune exec bench/main.exe -- service --ops 8000 --seed $(CHAOS_SEED) \
		--assert-service --json results/BENCH_service.json
	dune exec bin/validate_bench.exe -- results/BENCH_service.json \
		--bench service --min-records 11 \
		--service-p999-budget 60000000000 --service-knee 20000

# Conformance smoke: the service sweep with sampled completed-operation
# events on (1-in-8 by value residue) and the trace exported, then the
# offline monitor certifying the capture — schema, shard pairing, and
# FL-conformance of the job queue's enqueue/dequeue events; then the
# conformance panel (monitor throughput + sampling overhead, 10% gate).
conformance-smoke:
	mkdir -p results
	dune exec bench/main.exe -- service --ops 2000 --repeats 1 \
		--threads 1,2,4 --conformance-stride 8 \
		--trace results/TRACE_conformance.json
	dune exec bin/validate_trace.exe -- results/TRACE_conformance.json \
		--conformance --min-domains 2 --require op.enq --require op.deq
	dune exec bench/main.exe -- conformance --quick --assert-service

# Flake rate of the sharded service smoke test ("service sharded
# smoke"): run it N times, each in its own process and nothing else in
# the test binary, print how many runs failed, and fail if any did.
N ?= 200
smoke-sharded:
	dune build test/test_workload.exe
	@fails=0; i=0; \
	while [ $$i -lt $(N) ]; do \
		./_build/default/test/test_workload.exe test service 0 \
			>/dev/null 2>&1 || fails=$$((fails + 1)); \
		i=$$((i + 1)); \
	done; \
	echo "sharded smoke: $$fails of $(N) runs failed"; \
	[ $$fails -eq 0 ]

# Mega-history fuzz: uncapped single-phase programs (about 4,800
# recorded ops per iteration at the default 2000 steps x 3 threads)
# certified by the streaming checker — the strong queue, then the weak
# queue and weak stack, about 10k ops and under 0.1 s each — then a
# seeded-corruption campaign that must find, shrink and replay a
# violation. The `!` inverts the exit status: rejecting the corrupted
# history is the pass.
fuzz-mega:
	mkdir -p results/fuzz
	dune exec bin/flbench.exe -- fuzz --target mega/queue/strong \
		--seed $(FUZZ_SEED) --iters 2 --out results/fuzz
	dune exec bin/flbench.exe -- fuzz --target mega/queue/weak \
		--seed $(FUZZ_SEED) --iters 2 --out results/fuzz
	dune exec bin/flbench.exe -- fuzz --target mega/stack/weak \
		--seed $(FUZZ_SEED) --iters 2 --out results/fuzz
	! dune exec bin/flbench.exe -- fuzz --target mega/queue/strong@0x2a \
		--threads 1 --mega 400 --seed $(FUZZ_SEED) --iters 3 \
		--out results/fuzz
	dune exec bin/flbench.exe -- \
		fuzz --replay results/fuzz/$(FUZZ_SEED)-mega.repro

# Fuzz gauntlet, PR-sized: a short campaign over every target, then the
# intentionally-too-strong check (weak stack against Medium) which must
# fail, shrink to a tiny program, and replay byte-for-byte. The `!`
# inverts flbench's exit status: finding that violation is the pass.
FUZZ_SEED ?= 2014
fuzz-smoke:
	mkdir -p results/fuzz
	dune exec bin/flbench.exe -- fuzz --seed $(FUZZ_SEED) --iters 5 \
		--out results/fuzz
	! dune exec bin/flbench.exe -- fuzz --target stack/weak \
		--condition medium --seed $(FUZZ_SEED) --iters 20 \
		--out results/fuzz
	dune exec bin/flbench.exe -- \
		fuzz --replay results/fuzz/$(FUZZ_SEED).repro

# Nightly-depth campaign: more iterations and a wall-clock budget per
# target so the whole sweep stays bounded. Any .repro left in
# results/fuzz is a real counterexample to triage.
FUZZ_BUDGET ?= 300
fuzz-soak:
	mkdir -p results/fuzz
	dune exec bin/flbench.exe -- fuzz --seed $(FUZZ_SEED) --iters 400 \
		--budget $(FUZZ_BUDGET) --out results/fuzz

doc:
	dune build @doc

clean:
	dune clean

.PHONY: all test test-force bench-quick bench-full bench-json bench-trace chaos bench-chaos-json bench-shard-json bench-service-json conformance-smoke smoke-sharded fuzz-mega fuzz-smoke fuzz-soak doc clean
