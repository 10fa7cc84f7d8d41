# Convenience entry points; dune is the real build system.
.PHONY: all build test lint lint-selftest lint-baseline bench bench-check bench-baseline clean

all: build lint test

build:
	dune build

test:
	dune runtest

# ppdc-lint reads the .cmt typed trees dune emits, so a build must come
# first. Non-zero exit on any finding — this is the same gate CI runs.
lint: build
	dune exec ppdc-lint -- lib bin bench

# Prove the R6/R7 concurrency rules still fire: seed a lock-order
# inversion and a raise-path lock leak into the engine, assert the
# findings land at the expected locations, restore, assert clean.
lint-selftest: build
	sh tools/lint/selftest.sh

# Record today's findings so a new rule can land warning-only:
# `dune exec ppdc-lint -- --baseline lint-baseline.txt lib bin bench`
# then fails only on findings *beyond* the recorded counts. Shrink the
# file to zero entries to promote the rule to a hard error.
lint-baseline: build
	dune exec ppdc-lint -- --write-baseline lint-baseline.txt lib bin bench

bench:
	dune exec bench/main.exe

# Gate the flat-graph and dynamic-repair hot paths, and the
# event-simulator cost trajectory, against the committed baselines.
# Timed entries are compared after normalizing by each bench's in-run
# reference entry, so the check is meaningful on hardware other than
# the one that recorded the baseline; deterministic entries (costs and
# counts) must match bit for bit. The dynamic bench additionally
# enforces its in-run repair-vs-rebuild speedup floor, and the events
# bench its mu trade-off and trigger dominance invariants. The serve
# bench gates the loadgen request and error counts, asserts a clean
# end-to-end daemon run, and — on hosts with ≥2 cores — a ≥2x
# sharded-over-single-lock registry throughput floor. Tolerance for
# timed entries: PPDC_BENCH_TOLERANCE (default 0.10).
bench-check: build
	dune exec bench/flatgraph.exe -- --check BENCH_flatgraph.json
	dune exec bench/dynamic.exe -- --check BENCH_dynamic.json
	dune exec bench/events.exe -- --check BENCH_events.json
	dune exec bench/serve.exe -- --check BENCH_serve.json

# Re-record the committed baselines (run on a quiet machine).
bench-baseline: build
	dune exec bench/flatgraph.exe -- --out BENCH_flatgraph.json
	dune exec bench/dynamic.exe -- --out BENCH_dynamic.json
	dune exec bench/events.exe -- --out BENCH_events.json
	dune exec bench/serve.exe -- --out BENCH_serve.json

clean:
	dune clean
