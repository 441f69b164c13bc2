# Common targets for the SEVulDet reproduction.

PYTHON ?= python3
SCALE ?= small

.PHONY: install test bench experiments examples loc clean

install:
	pip install -e .[dev]

test:
	$(PYTHON) -m pytest tests/

test-report:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	REPRO_SCALE=$(SCALE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-report:
	REPRO_SCALE=$(SCALE) $(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

experiments: 
	$(PYTHON) scripts/build_experiments_md.py

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

# Python line count of the library (the number simplicity changes report)
loc:
	@find src/repro -name '*.py' | xargs wc -l | tail -1

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
