# CI entry points for the EasyACIM reproduction.
#
#   make test              tier-1 test suite (the PR gate)
#   make smoke             quickstart flow (exploration, distillation, netlists,
#                          routed layouts, GDS/DEF export) in one process
#   make api-smoke         every repro.api request kind from JSON through one
#                          Session, with DeprecationWarning promoted to error
#                          (proves the new path avoids the legacy front doors)
#   make campaign-smoke    tiny campaign -> kill -> resume -> overlapping
#                          campaign (each design stored once) -> query
#   make physical-smoke    two-design flow: >= 1 macro cache hit and
#                          byte-identical GDSII vs a fresh pipeline per design
#   make template-smoke    three neighbouring designs: columns derived from
#                          a solved template (memory + store rungs) with
#                          byte-identical GDSII vs a fresh pipeline per design
#   make trace-smoke       quickstart-sized flow under `repro trace`: the
#                          exported Chrome trace must parse and nest api +
#                          engine + chunk + physical-pipeline spans
#   make serve-smoke       live HTTP server on an ephemeral port: every
#                          request kind by HTTP, SSE campaign streaming with
#                          replay, cancel+resume, 429/404/400 envelopes,
#                          graceful drain (docs/serving.md)
#   make serve-bench-smoke CI-sized serving load benchmark (throughput/p99
#                          gates, auto-relaxed on 1-core hosts, no write)
#   make serve-bench       full serving load benchmark (>= 1000 mixed
#                          requests), records BENCH_serve.json
#   make physical-bench-smoke CI-sized physical-pipeline benchmark (5x warm-reuse
#                          gate, auto-relaxed on 1-core hosts, no write)
#   make physical-bench    full physical-pipeline benchmark, records
#                          BENCH_physical.json
#   make template-bench-smoke CI-sized near-miss template benchmark (5x
#                          derived-vs-cold gate, auto-relaxed on 1-core
#                          hosts, no write)
#   make template-bench    full near-miss template benchmark, records
#                          BENCH_template.json
#   make model-bench-smoke CI-sized vectorized-model benchmark (5x gate, no write)
#   make model-bench       full vectorized-model benchmark, records BENCH_model.json
#   make paper-bench-smoke every paper-figure benchmark (benchmarks/bench_*.py
#                          test functions) once as a plain test, timing off
#   make perfbench-smoke   the repository benchmark's own tests, plus short
#                          explore (both NSGA-II seed groups), flow and serve
#                          runs (serve starts real `repro serve` processes
#                          and checks every payload); fails when an output
#                          fingerprint differs from perfbench/reference.json
#                          or a served request is wrong
#   make ci                what every PR must pass: tier-1 + the smokes + gates
#
# PYTHONPATH is set here so no editable install is needed on CI runners.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test smoke api-smoke campaign-smoke physical-smoke template-smoke trace-smoke serve-smoke serve-bench bench-serve serve-bench-smoke physical-bench physical-bench-smoke template-bench template-bench-smoke model-bench model-bench-smoke paper-bench-smoke perfbench-smoke ci

test:
	$(PYTHON) -m pytest -x -q

smoke:
	$(PYTHON) examples/quickstart.py

api-smoke:
	$(PYTHON) -W error::DeprecationWarning examples/api_smoke.py

campaign-smoke:
	$(PYTHON) examples/campaign_smoke.py

physical-smoke:
	$(PYTHON) examples/physical_smoke.py

template-smoke:
	$(PYTHON) examples/template_smoke.py

trace-smoke:
	$(PYTHON) examples/trace_smoke.py

serve-smoke:
	$(PYTHON) examples/serve_smoke.py

serve-bench-smoke:
	$(PYTHON) benchmarks/bench_serve.py --quick

serve-bench:
	$(PYTHON) benchmarks/bench_serve.py

# alias kept for discoverability
bench-serve: serve-bench

physical-bench-smoke:
	$(PYTHON) benchmarks/bench_physical_pipeline.py --quick

physical-bench:
	$(PYTHON) benchmarks/bench_physical_pipeline.py

template-bench-smoke:
	$(PYTHON) benchmarks/bench_template_reuse.py --quick

template-bench:
	$(PYTHON) benchmarks/bench_template_reuse.py

model-bench-smoke:
	$(PYTHON) benchmarks/bench_model_vectorized.py --quick

model-bench:
	$(PYTHON) benchmarks/bench_model_vectorized.py

paper-bench-smoke:
	$(PYTHON) -m pytest -q benchmarks --benchmark-disable

perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench/test_perfbench.py
	$(PYTHON) perfbench/run.py --workload explore --seed 1 --seconds 2 --trace 0
	$(PYTHON) perfbench/run.py --workload flow --seed 1 --seconds 2
	$(PYTHON) perfbench/run.py --workload serve --seed 1 --seconds 2

ci: test smoke api-smoke campaign-smoke physical-smoke template-smoke trace-smoke serve-smoke model-bench-smoke physical-bench-smoke template-bench-smoke serve-bench-smoke paper-bench-smoke perfbench-smoke
