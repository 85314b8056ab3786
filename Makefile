# Convenience wrapper around dune; `make ci` runs every gate of the CI
# workflow, whose steps each call one of these targets.

.PHONY: all build test soak bench-smoke perf-compare trace-smoke audit-smoke sweep-smoke sweep-speedup telemetry-smoke top-smoke bisect-smoke ni-smoke perf-smoke perf-exact profile-smoke lint-channels ci clean

all: build

build:
	dune build @all

# Unit and property tests at the qcheck seed CI pins, so a failing
# property reproduces straight from the log; set QCHECK_SEED to run
# another (ROADMAP lists the seeds that fail today).
QCHECK_SEED ?= 20260808

test:
	@echo "qcheck seed: $(QCHECK_SEED)"
	QCHECK_SEED=$(QCHECK_SEED) dune runtest

# Seed soak: every property of the suites that drive the memory
# hierarchy or the µop streams must hold for QCHECK_SEED=1..20, not only
# the seed CI pins.  Each seed is echoed; the first failing suite stops
# the run with its report (about three minutes on two cores).
# test_analysis and test_schedule are not soak-clean yet (ROADMAP, seed
# robustness).
SOAK_SUITES = test_llc test_ooo test_core test_diff test_util test_workload

soak:
	dune build $(SOAK_SUITES:%=test/%.exe)
	for seed in $$(seq 1 20); do \
		echo "soak: QCHECK_SEED=$$seed"; \
		for suite in $(SOAK_SUITES); do \
			QCHECK_SEED=$$seed ./_build/default/test/$$suite.exe --compact \
				> soak.log 2>&1 || { cat soak.log; \
				echo "soak: $$suite fails at QCHECK_SEED=$$seed"; exit 1; }; \
		done; \
	done

# Short benchmark run that must produce parseable machine-readable output
# (BENCH_run.json snapshot + BENCH_history.jsonl regression database).
# An unknown figure name must exit 2 before the harness writes anything.
bench-smoke:
	dune build bench/main.exe
	sh -c 'dune exec bench/main.exe -- --fast fig5 fig05 > /dev/null 2>&1; \
		test $$? -eq 2'
	dune exec bench/main.exe -- --fast fig5
	dune exec bench/json_check.exe -- --require runs BENCH_run.json
	dune exec bench/json_check.exe -- --history BENCH_history.jsonl

# Perf regression check: a second fig5 --fast run must not regress
# against the previous record in BENCH_history.jsonl (bench-smoke's, in
# make ci) past compare.exe's default 5% cycle and IPC thresholds.
perf-compare:
	dune exec bench/main.exe -- --fast fig5
	dune exec bench/compare.exe

# Trace export gate: a traced run's Chrome trace and --stats-json
# metrics must validate.
trace-smoke:
	dune build bin/mi6_sim.exe bench/json_check.exe
	dune exec bin/mi6_sim.exe -- run -b gcc --warmup 20000 --measure 60000 \
		--trace trace.json --stats-json metrics.json
	dune exec bench/json_check.exe -- --chrome-trace trace.json metrics.json

# Leakage gates, each exiting nonzero unless both halves of the claim
# hold: `attack` needs every insecure channel to leak and every MI6 one
# to be bit-identical; `audit` needs zero MI6 divergence across attacker
# behaviours AND a localized baseline leak, with a report that is
# byte-identical for every --jobs value.
audit-smoke:
	dune build bin/mi6_sim.exe
	dune exec bin/mi6_sim.exe -- attack
	dune exec bin/mi6_sim.exe -- audit --json audit.json
	dune exec bin/mi6_sim.exe -- audit --jobs 2 --json audit-j2.json > /dev/null
	cmp audit.json audit-j2.json

# Domain-parallel sweep gate, the only one: a serial and a parallel
# sweep of the same 2x2x2 (bench x variant x seed) grid, each streaming
# per-cell telemetry every 1000 cycles and appending to
# SWEEP_history.jsonl, must write byte-identical --stats-json snapshots
# and telemetry streams; every stream and the history must validate.
# Each sweep's stdout goes to a log (the sweep-wall line CI's speedup
# check reads) without hiding its exit status.  A non-positive --seeds
# or --telemetry-every must exit 2.
sweep-smoke:
	dune build bin/mi6_sim.exe bench/json_check.exe
	sh -c 'dune exec bin/mi6_sim.exe -- sweep -b gcc -v base --warmup 100 \
		--measure 100 --seeds 0 > /dev/null 2>&1; test $$? -eq 2'
	sh -c 'dune exec bin/mi6_sim.exe -- sweep -b gcc -v base --warmup 100 \
		--measure 100 --telemetry-every 0 > /dev/null 2>&1; test $$? -eq 2'
	dune exec bin/mi6_sim.exe -- sweep -b gcc,mcf -v base,f+p+m+a --seeds 2 \
		--warmup 2000 --measure 5000 --jobs 1 --telemetry tel-serial \
		--telemetry-every 1000 --stats-json sweep-serial.json \
		--history SWEEP_history.jsonl > sweep-serial.log
	cat sweep-serial.log
	dune exec bin/mi6_sim.exe -- sweep -b gcc,mcf -v base,f+p+m+a --seeds 2 \
		--warmup 2000 --measure 5000 --jobs 2 --telemetry tel-parallel \
		--telemetry-every 1000 --stats-json sweep-parallel.json \
		--history SWEEP_history.jsonl > sweep-parallel.log
	cat sweep-parallel.log
	cmp sweep-serial.json sweep-parallel.json
	for f in tel-serial#*; do \
		cmp "$$f" "tel-parallel#$${f#tel-serial\#}" || exit 1; \
		dune exec bench/json_check.exe -- --telemetry "$$f" || exit 1; \
	done
	dune exec bench/json_check.exe -- --history SWEEP_history.jsonl

# Sweep speedup gate: on a host with at least two hardware threads, the
# --jobs 2 sweep of sweep-smoke (which writes both logs) must be at
# least 1.7x as fast as the serial one.
sweep-speedup:
	if [ "$$(nproc)" -ge 2 ]; then \
		t1=$$(sed -n 's/^sweep-wall jobs=1 cells=[0-9]* seconds=//p' sweep-serial.log); \
		t2=$$(sed -n 's/^sweep-wall jobs=2 cells=[0-9]* seconds=//p' sweep-parallel.log); \
		awk -v a="$$t1" -v b="$$t2" \
			'BEGIN { s = a / b; printf "sweep speedup at --jobs 2: %.2fx\n", s; exit (s >= 1.7 ? 0 : 1) }'; \
	else \
		echo "single hardware thread: skipping speedup gate"; \
	fi

# Telemetry gate: a run streaming JSONL snapshots every 1000 cycles must
# produce a stream that validates (schema, dense seq, increasing cycles)
# with a plausible snapshot count; a non-positive --telemetry-every must
# exit 2.  sweep-smoke checks the per-cell sweep streams.
telemetry-smoke:
	dune build bin/mi6_sim.exe bench/json_check.exe
	sh -c 'dune exec bin/mi6_sim.exe -- run -b gcc -v base --warmup 100 \
		--measure 100 --telemetry-every 0 > /dev/null 2>&1; test $$? -eq 2'
	dune exec bin/mi6_sim.exe -- run -b gcc -v base --warmup 2000 \
		--measure 20000 --telemetry telemetry.jsonl --telemetry-every 1000
	dune exec bench/json_check.exe -- --telemetry telemetry.jsonl \
		--min-snapshots 20

# The live-view subcommand must render the latest snapshot of
# telemetry-smoke's stream in --once (CI) mode.
top-smoke: telemetry-smoke
	dune exec bin/mi6_sim.exe -- top --once telemetry.jsonl

# Bisection gate: run the known BASE leak (spectre-v1 on BASE vs the
# full MI6 variant) in lockstep, compared every cycle from reset (exit 1
# = divergence found, the expected outcome), validate the slice report
# against the mi6.bisect/2 schema, and cross-check that the diverging
# component hosts the channel the leakage auditor blames (audit.json
# from audit-smoke).  The secret-pair run on the same witness must stay
# clean: spectre-v1 leaks only transiently, never through committed
# state.  Bisection speed is gated on two identical lockstep scans of a
# 1,000-µop mcf stream (BASE vs BASE, clean, about 0.2 s each; the
# witness runs last a few hundred microseconds, too short to time):
# the rerun must not regress compare.exe's kips threshold.  A
# non-positive --max-cycles must exit 2 rather than report a clean scan
# that never ran.
bisect-smoke:
	dune build bin/mi6_sim.exe bench/json_check.exe bench/compare.exe
	sh -c 'dune exec bin/mi6_sim.exe -- bisect -b mcf --max-cycles=0 \
		> /dev/null 2>&1; test $$? -eq 2'
	dune exec bin/mi6_sim.exe -- audit --json audit.json > /dev/null
	sh -c 'dune exec bin/mi6_sim.exe -- bisect --witness spectre-v1 \
		--variant-a base --variant-b f+p+m+a --json bisect.json; \
		test $$? -eq 1'
	dune exec bench/json_check.exe -- --bisect bisect.json \
		--agrees-audit audit.json
	dune exec bin/mi6_sim.exe -- bisect --witness spectre-v1 \
		--secret-a 0 --secret-b 1 --json bisect-secret.json
	dune exec bench/json_check.exe -- --bisect bisect-secret.json
	for i in 1 2; do \
		dune exec bin/mi6_sim.exe -- bisect -b mcf --uops 1000 \
			--variant-a base --variant-b base \
			--history BISECT_history.jsonl > /dev/null || exit 1; \
	done
	dune exec bench/json_check.exe -- --history BISECT_history.jsonl
	dune exec bench/compare.exe -- --history BISECT_history.jsonl

# Interrupt-schedule noninterference gate:
#   - a generated adversarial batch on the full MI6 variant must pass
#     clean (exit 0) and its mi6.ni/1 report must validate; any
#     falsifying schedule is kept in ni-falsified.sched for replay;
#   - replaying the committed BASE counterexample must falsify (exit 1)
#     and its report must validate too, which (via json_check --ni)
#     requires the Audit localization to name a real leaking channel;
#   - the batch's and the replay's verdicts must be byte-identical
#     across --jobs;
#   - a non-positive --count must exit 2.
ni-smoke:
	dune build bin/mi6_sim.exe bench/json_check.exe
	sh -c 'dune exec bin/mi6_sim.exe -- ni --count=-2 > /dev/null 2>&1; \
		test $$? -eq 2'
	dune exec bin/mi6_sim.exe -- ni --count 25 --seed 42 --json ni-fpma.json \
		--save-falsified ni-falsified.sched
	dune exec bench/json_check.exe -- --ni ni-fpma.json
	dune exec bin/mi6_sim.exe -- ni --count 25 --seed 42 --jobs 2 \
		--json ni-fpma-j2.json > /dev/null
	cmp ni-fpma.json ni-fpma-j2.json
	sh -c 'dune exec bin/mi6_sim.exe -- ni \
		--schedule-file examples/ni/base-counterexample.sched \
		--json ni-base.json; test $$? -eq 1'
	dune exec bench/json_check.exe -- --ni ni-base.json
	sh -c 'dune exec bin/mi6_sim.exe -- ni --jobs 2 \
		--schedule-file examples/ni/base-counterexample.sched \
		--json ni-base-j2.json; test $$? -eq 1'
	cmp ni-base.json ni-base-j2.json

# The simulator benchmark (perfbench/) at about 5% of its run length,
# untraced and traced, about two minutes.  Beyond the record schema it
# fails on the benchmark's own correctness checks, the invariants any
# simulator-only speed-up must keep: its slice loop equals
# Tmachine.run_spec counter for counter, a pool cell equals a serial
# rerun, ni verdicts equal perfbench/ni-fpma-known.txt, and traced and
# untraced runs produce the same digests.
perf-smoke:
	dune build @perfbench/perf-smoke

# Bit-identity gate for speed-ups: each workload of the simulator
# benchmark, run briefly at seed 0, must reproduce the deterministic
# results over its fixed prefix of ops (the record's "exact" object:
# window cycles, instructions, counter digests, CPI stacks, sweep-cell
# and ni-verdict digests) exactly as test/perf-exact.expected pins them
# (about 20 s).  A change that is meant to move simulated timing
# regenerates that file from the same loop and says why.
PERF_EXACT_WORKLOADS = spec-mem spec-ilp sweep-fig13 ni-fpma

perf-exact:
	dune build perfbench/perf.exe bench/json_check.exe
	for w in $(PERF_EXACT_WORKLOADS); do \
		dune exec perfbench/perf.exe -- --workload $$w --seconds 1 --trace 0 \
			--out perf-exact-$$w.json > /dev/null || exit 1; \
	done
	for w in $(PERF_EXACT_WORKLOADS); do \
		echo "# $$w"; \
		dune exec bench/json_check.exe -- --exact perf-exact-$$w.json || exit 1; \
	done > perf-exact.txt
	diff test/perf-exact.expected perf-exact.txt

# CPI-stack profile gate: the same profile with and without the host
# sampler (--self) must write byte-identical JSON, so sampling moves no
# simulated bit, and the --self run must state the sampler's overhead.
profile-smoke:
	dune build bin/mi6_sim.exe
	dune exec bin/mi6_sim.exe -- profile -b gcc -v BASE,F+P+M+A \
		--warmup 20000 --measure 60000 --json profile.json \
		--folded profile.folded
	dune exec bin/mi6_sim.exe -- profile --self -b gcc -v BASE,F+P+M+A \
		--warmup 20000 --measure 60000 --json profile-self.json \
		> profile-self.txt
	cat profile-self.txt
	cmp profile.json profile-self.json
	grep -q 'sampler overhead: .*% of wall' profile-self.txt

# Static lint gate: constant-time / hardware-invariant verdicts and
# channel inference (mi6.lint/2 reports; exit codes: 0 = clean,
# 1 = findings, 2 = usage/IO error), one pass over the corpus:
#   - the MI6 machine configuration must lint clean and the BASE variant
#     must be flagged, with and without channel lowering (over the
#     shared-region demo ledger, each BASE config finding is mapped to
#     the channel it leaves open);
#   - the full witness corpus must be flagged under a 32-instruction
#     speculation window; the plain reports and the --channels report
#     validate against json_check --lint (every speculative finding names
#     a channel), and the --channels report is byte-identical across two
#     runs;
#   - every committed hex example must get its expected verdict with
#     channel lowering on (ct_* clean, everything else flagged); its
#     examples/lint/*-channels.json report is kept for inspection;
#   - a non-positive --cores must exit 2.
lint-channels:
	dune build bin/mi6_sim.exe bench/json_check.exe
	sh -c 'dune exec bin/mi6_sim.exe -- lint --machine mi6 --cores 0 \
		> /dev/null 2>&1; test $$? -eq 2'
	dune exec bin/mi6_sim.exe -- lint --machine mi6 --json lint-mi6.json
	sh -c 'dune exec bin/mi6_sim.exe -- lint --machine base --json lint-base.json; test $$? -eq 1'
	sh -c 'dune exec bin/mi6_sim.exe -- lint --witness all --speculative 32 \
		--json lint-witnesses.json; test $$? -eq 1'
	dune exec bench/json_check.exe -- --lint lint-mi6.json --lint lint-base.json \
		--lint lint-witnesses.json
	sh -c 'dune exec bin/mi6_sim.exe -- lint --witness all --speculative 32 \
		--channels --json lint-channels.json; test $$? -eq 1'
	sh -c 'dune exec bin/mi6_sim.exe -- lint --witness all --speculative 32 \
		--channels --json lint-channels-2.json; test $$? -eq 1'
	cmp lint-channels.json lint-channels-2.json
	dune exec bench/json_check.exe -- --lint lint-channels.json
	sh -c 'dune exec bin/mi6_sim.exe -- lint --machine base --channels \
		--json lint-channels-base.json; test $$? -eq 1'
	dune exec bin/mi6_sim.exe -- lint --machine mi6 --channels \
		--json lint-channels-mi6.json
	dune exec bench/json_check.exe -- --lint lint-channels-base.json \
		--lint lint-channels-mi6.json
	for f in examples/lint/*.hex; do \
		case $$f in examples/lint/ct_*) want=0 ;; *) want=1 ;; esac; \
		dune exec bin/mi6_sim.exe -- lint --hex $$f --speculative 32 \
			--channels --json "$${f%.hex}-channels.json"; got=$$?; \
		if [ $$got -ne $$want ]; then \
			echo "lint-channels: $$f exited $$got, expected $$want"; exit 1; \
		fi; \
		dune exec bench/json_check.exe -- --lint "$${f%.hex}-channels.json" \
			|| exit 1; \
	done

ci: build test soak bench-smoke trace-smoke audit-smoke lint-channels profile-smoke telemetry-smoke top-smoke sweep-smoke sweep-speedup bisect-smoke ni-smoke perf-smoke perf-exact perf-compare

clean:
	dune clean
	rm -f BENCH_run.json audit.json audit-j2.json sweep-serial.json \
		sweep-parallel.json lint-mi6.json lint-base.json lint-witnesses.json \
		lint-channels.json lint-channels-2.json lint-channels-base.json \
		lint-channels-mi6.json examples/lint/*-channels.json \
		bisect.json bisect-secret.json BISECT_history.jsonl \
		ni-fpma.json ni-fpma-j2.json ni-base.json ni-base-j2.json \
		ni-falsified.sched \
		telemetry.jsonl tel-serial\#* tel-parallel\#* SWEEP_history.jsonl \
		sweep-serial.log sweep-parallel.log \
		profile.json profile.folded profile-self.json profile-self.txt soak.log \
		trace.json metrics.json perf-exact-*.json perf-exact.txt
