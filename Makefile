# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install lint test sanitize-smoke chaos-smoke check bench bench-tables examples suite clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# repro lint always runs (stdlib-only); ruff/mypy are dev-extra tools
# (pip install -e .[dev]) and are skipped gracefully when absent so
# `make lint` works in minimal containers.  The effects/units dumps
# mirror what CI uploads as artifacts (lint-effects.json,
# lint-units.json).
lint:
	PYTHONPATH=src $(PYTHON) -m repro.cli lint
	PYTHONPATH=src $(PYTHON) -m repro.cli lint effects --format json \
		> lint-effects.json
	@echo "wrote lint-effects.json (whole-program effect table)"
	PYTHONPATH=src $(PYTHON) -m repro.cli lint units --format json \
		> lint-units.json
	@echo "wrote lint-units.json (per-function unit/time-domain table)"
	@if command -v ruff >/dev/null 2>&1; then ruff check; \
		else echo "ruff not installed; skipping (pip install -e .[dev])"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
		else echo "mypy not installed; skipping (pip install -e .[dev])"; fi

test:
	$(PYTHON) -m pytest tests/
	$(PYTHON) -m pytest perfbench/tests -q

# Runtime half of the determinism guarantees: capture the draw ledger
# of one real figure serially and under --jobs 2, then require zero
# divergence (docs/static-analysis.md walks through a failure).
sanitize-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize run --figure fig6 \
		--repetitions 1 --out .sanitize_serial.json
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize run --figure fig6 \
		--repetitions 1 --jobs 2 --out .sanitize_jobs2.json
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize diff \
		.sanitize_serial.json .sanitize_jobs2.json
	rm -f .sanitize_serial.json .sanitize_jobs2.json

# Fault-tolerance half: the same figure under deterministic worker
# kills must exit 0 and archive byte-identical results to a clean run,
# and an interrupted sweep (4 journaled units plus a torn line) must
# resume to the same bytes, as in CI's chaos-smoke job
# (docs/robustness.md#runtime-fault-tolerance).
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli experiment fig6 \
		--repetitions 1 --seed 7 --out .chaos_clean.json
	PYTHONPATH=src $(PYTHON) -m repro.cli chaos run --figure fig6 \
		--repetitions 1 --seed 7 --kill-rate 0.2 --jobs 2 \
		--out .chaos_chaotic.json
	cmp .chaos_clean.json .chaos_chaotic.json
	rm -rf .chaos_registry
	PYTHONPATH=src $(PYTHON) -m repro.cli experiment fig6 \
		--repetitions 1 --seed 7 --jobs 2 --registry .chaos_registry \
		--out .chaos_full.json
	JOURNAL=$$(ls .chaos_registry/journals/*.jsonl) && \
		head -n 4 "$$JOURNAL" > .chaos_journal.tmp && \
		printf '{"fn": "torn' >> .chaos_journal.tmp && \
		mv .chaos_journal.tmp "$$JOURNAL"
	PYTHONPATH=src $(PYTHON) -m repro.cli experiment fig6 \
		--repetitions 1 --seed 7 --jobs 2 --registry .chaos_registry \
		--resume auto --out .chaos_resumed.json > .chaos_resume.log
	grep resumed .chaos_resume.log
	cmp .chaos_full.json .chaos_resumed.json
	rm -rf .chaos_clean.json .chaos_chaotic.json .chaos_full.json \
		.chaos_resumed.json .chaos_resume.log .chaos_registry

check: lint test sanitize-smoke chaos-smoke

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f; echo; done

suite:
	$(PYTHON) -m repro.cli experiment all --out-dir results/

# Deliberately leaves results/ alone: it holds committed reference
# outputs of the figure suite, not build artifacts.
clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	rm -f .sanitize_serial.json .sanitize_jobs2.json lint-effects.json \
		lint-units.json .chaos_*.json .chaos_resume.log
	rm -rf .chaos_registry
	find . -name __pycache__ -type d -exec rm -rf {} +
