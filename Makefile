# CI entry points for the EasyACIM reproduction.
#
#   make test              tier-1 test suite (the PR gate)
#   make smoke             quickstart flow through the parallel engine (2 workers)
#   make api-smoke         every repro.api request kind from JSON through one
#                          Session, with DeprecationWarning promoted to error
#                          (proves the new path avoids the legacy front doors)
#   make campaign-smoke    tiny campaign -> kill -> resume -> query (store path)
#   make physical-smoke    two-design flow with macro reuse on: >= 1 macro
#                          cache hit and byte-identical GDSII vs reuse-off
#   make template-smoke    three neighbouring designs: columns derived from
#                          a solved template (memory + store rungs) with
#                          byte-identical GDSII vs reuse-off
#   make trace-smoke       quickstart-sized flow under `repro trace`: the
#                          exported Chrome trace must parse and nest api +
#                          engine + chunk + physical-pipeline spans
#   make surrogate-smoke   screened vs unscreened fixed-seed exploration:
#                          fewer exact evals at >= recall, counters
#                          consistent, cold-store fallback bit-identical
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
#   make surrogate-bench-smoke CI-sized surrogate-screening benchmark (3x
#                          exact-eval gate + recall parity, recorded only
#                          in quick mode, no write)
#   make surrogate-bench   full surrogate-screening benchmark on the 112k-point
#                          space, records BENCH_surrogate.json
#   make bench-quick       CI-sized engine scaling benchmark (no baseline write)
#   make bench             full engine scaling benchmark, records BENCH_engine.json
#   make ci                what every PR must pass: tier-1 + the smokes + gates
#
# PYTHONPATH is set here so no editable install is needed on CI runners.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test smoke api-smoke campaign-smoke physical-smoke template-smoke trace-smoke surrogate-smoke serve-smoke serve-bench bench-serve serve-bench-smoke physical-bench physical-bench-smoke template-bench template-bench-smoke model-bench model-bench-smoke surrogate-bench surrogate-bench-smoke bench bench-quick ci

test:
	$(PYTHON) -m pytest -x -q

smoke:
	$(PYTHON) examples/quickstart.py --workers 2

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

surrogate-smoke:
	$(PYTHON) examples/surrogate_smoke.py

serve-smoke:
	$(PYTHON) examples/serve_smoke.py

serve-bench-smoke:
	$(PYTHON) benchmarks/bench_serve.py --quick

serve-bench:
	$(PYTHON) benchmarks/bench_serve.py

# alias kept for discoverability (`bench-serve` mirrors `bench-quick`/`bench`)
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

surrogate-bench-smoke:
	$(PYTHON) benchmarks/bench_surrogate.py --quick

surrogate-bench:
	$(PYTHON) benchmarks/bench_surrogate.py

bench-quick:
	$(PYTHON) benchmarks/bench_engine_scaling.py --quick --workers 2

bench:
	$(PYTHON) benchmarks/bench_engine_scaling.py

ci: test smoke api-smoke campaign-smoke physical-smoke template-smoke trace-smoke surrogate-smoke serve-smoke model-bench-smoke physical-bench-smoke template-bench-smoke serve-bench-smoke surrogate-bench-smoke
