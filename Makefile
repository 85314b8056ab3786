# Convenience wrapper around dune; `make ci` is what the CI workflow runs.

.PHONY: all build test bench-smoke audit-smoke sweep-smoke telemetry-smoke top-smoke bisect-smoke ni-smoke perf-smoke lint-channels perf-compare ci clean

all: build

build:
	dune build @all

test:
	dune runtest

# Short benchmark run that must produce parseable machine-readable output
# (BENCH_run.json snapshot + BENCH_history.jsonl regression database).
bench-smoke:
	dune exec bench/main.exe -- --fast fig5
	dune exec bench/json_check.exe -- --require runs BENCH_run.json
	dune exec bench/json_check.exe -- --history BENCH_history.jsonl

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

# Domain-parallel sweep determinism gate: the --stats-json snapshot must
# be byte-identical no matter how many domains ran the cells.
sweep-smoke:
	dune exec bin/mi6_sim.exe -- sweep -b gcc,mcf -v base,f+p+m+a --seeds 2 \
		--warmup 2000 --measure 5000 --jobs 1 --stats-json sweep-serial.json
	dune exec bin/mi6_sim.exe -- sweep -b gcc,mcf -v base,f+p+m+a --seeds 2 \
		--warmup 2000 --measure 5000 --jobs 2 --stats-json sweep-parallel.json
	cmp sweep-serial.json sweep-parallel.json

# Telemetry gate: a run streaming JSONL snapshots every 1000 cycles must
# produce a stream that validates (schema, dense seq, increasing cycles)
# with a plausible snapshot count, and the per-cell streams of a sweep
# must be byte-identical between serial and parallel execution.
telemetry-smoke:
	dune exec bin/mi6_sim.exe -- run -b gcc -v base --warmup 2000 \
		--measure 20000 --telemetry telemetry.jsonl --telemetry-every 1000
	dune exec bench/json_check.exe -- --telemetry telemetry.jsonl \
		--min-snapshots 20
	dune exec bin/mi6_sim.exe -- sweep -b gcc,mcf -v base,f+p+m+a \
		--warmup 2000 --measure 5000 --jobs 1 --telemetry tel-serial \
		--telemetry-every 1000 > /dev/null
	dune exec bin/mi6_sim.exe -- sweep -b gcc,mcf -v base,f+p+m+a \
		--warmup 2000 --measure 5000 --jobs 2 --telemetry tel-parallel \
		--telemetry-every 1000 > /dev/null
	for f in tel-serial#*; do \
		cmp "$$f" "tel-parallel#$${f#tel-serial\#}" || exit 1; \
	done
	for f in tel-serial#*; do \
		dune exec bench/json_check.exe -- --telemetry "$$f"; \
	done

# The live-view subcommand must render the latest snapshot of a fresh
# stream in --once (CI) mode.
top-smoke:
	dune exec bin/mi6_sim.exe -- run -b gcc -v base --warmup 2000 \
		--measure 20000 --telemetry telemetry.jsonl --telemetry-every 1000
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
# the rerun must not regress compare.exe's kips threshold.
bisect-smoke:
	dune build bin/mi6_sim.exe bench/json_check.exe bench/compare.exe
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
#   - the replay verdicts must be byte-identical across --jobs.
ni-smoke:
	dune build bin/mi6_sim.exe bench/json_check.exe
	dune exec bin/mi6_sim.exe -- ni --count 25 --seed 42 --json ni-fpma.json \
		--save-falsified ni-falsified.sched
	dune exec bench/json_check.exe -- --ni ni-fpma.json
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

# Diff the two most recent bench runs in BENCH_history.jsonl; exits
# nonzero on a cycle or IPC regression past the default 5% thresholds.
perf-compare:
	dune exec bench/compare.exe

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
#     examples/lint/*-channels.json report is kept for inspection.
lint-channels:
	dune build bin/mi6_sim.exe bench/json_check.exe
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

ci: build test bench-smoke audit-smoke sweep-smoke telemetry-smoke top-smoke bisect-smoke ni-smoke perf-smoke lint-channels

clean:
	dune clean
	rm -f BENCH_run.json audit.json audit-j2.json sweep-serial.json \
		sweep-parallel.json lint-mi6.json lint-base.json lint-witnesses.json \
		lint-channels.json lint-channels-2.json lint-channels-base.json \
		lint-channels-mi6.json examples/lint/*-channels.json \
		bisect.json bisect-secret.json BISECT_history.jsonl \
		ni-fpma.json ni-base.json ni-base-j2.json ni-falsified.sched \
		telemetry.jsonl tel-serial\#* tel-parallel\#*
