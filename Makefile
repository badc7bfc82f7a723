# Convenience targets for the reproduction.

PY ?= python3

.PHONY: install test experiments full-sweep clean

install:
	$(PY) setup.py develop

test:
	$(PY) -m pytest tests/

experiments:
	$(PY) -m repro.experiments --exp all --collection small

full-sweep:
	$(PY) -m repro.experiments --exp all --collection full

clean:
	rm -rf .repro_cache .pytest_cache build *.egg-info
