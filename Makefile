# Convenience targets; everything is driven by dune underneath.

FUZZ_SEED ?= $(shell date +%Y%m%d)
FUZZ_CASES ?= 10000
# Worker domains for parallel candidate evaluation.  Outcomes are
# determined by FUZZ_SEED alone — the same seed reproduces the same
# failures at any job count — so -j only changes wall-clock time.
JOBS ?= $(shell nproc 2>/dev/null || echo 1)

.PHONY: all test check doc bench bench-pairs serve-smoke fuzz clean

all:
	dune build @all

test:
	dune runtest

# Full gate: build, unit tests, a fixed-seed 50-case fuzz smoke at
# -j 2 through the engine path (the `@check` alias in test/dune,
# exercising the parallel campaign driver), the serving smoke (real
# daemon process, SIGKILL mid-tune, bit-identical resume), and the
# API docs (skipped gracefully when odoc is not installed).
check:
	dune build
	dune runtest
	dune build @check
	$(MAKE) doc

# Process-level serving smoke on its own: boots `imtp serve`, runs two
# concurrent client tunes, SIGKILLs the daemon mid-search and resumes
# in a fresh daemon, asserting the resumed history digest matches the
# uninterrupted run's.  Fixed seeds; also part of `dune build @check`.
serve-smoke:
	dune build @serve-smoke

# API documentation (odoc comments on every public .mli).  Gated on
# odoc being installed so `make check` works in minimal containers.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc; \
	  echo "docs: _build/default/_doc/_html/index.html"; \
	else \
	  echo "doc: odoc not installed, skipping (opam install odoc)"; \
	fi

# The paper-suite benchmark (bench/suite/README.md): one measured run
# of each workload BENCHMARK.json declares, appended as result rows to
# bench-runs.jsonl.  Compare them against the committed baseline with
#   dune exec bench/suite/suite.exe -- compare \
#       bench/suite/results/baseline.jsonl bench-runs.jsonl
bench:
	for w in paper_ops gptj_gated nets serve; do \
	  dune exec bench/suite/suite.exe -- --workload $$w --seed 2025 \
	    --seconds 15 --trace 0 --out bench-runs.jsonl || exit 1; \
	done

# Paired runs of one workload, a parent revision against HEAD, both
# built from their committed files (bench/pairs.sh): each side's
# median and quartiles of METRIC and HEAD's win count.
PAIRS_REV ?= HEAD~1
PAIRS ?= 10
PAIRS_WORKLOAD ?= paper_ops
PAIRS_SEED ?= 2025
PAIRS_METRIC ?= tune_s
bench-pairs:
	bench/pairs.sh -p $(PAIRS_REV) -n $(PAIRS) -w $(PAIRS_WORKLOAD) \
	  -s $(PAIRS_SEED) -m $(PAIRS_METRIC)

# Long fuzzing campaign with a date-derived seed (override with
# FUZZ_SEED=n / FUZZ_CASES=n / JOBS=n).  The seed is printed first so
# a failing campaign can be reproduced exactly — with any JOBS value.
fuzz:
	@echo "fuzz seed: $(FUZZ_SEED)  cases: $(FUZZ_CASES)  jobs: $(JOBS)"
	dune exec bin/imtp_cli.exe -- fuzz --seed $(FUZZ_SEED) --cases $(FUZZ_CASES) --jobs $(JOBS)

clean:
	dune clean
