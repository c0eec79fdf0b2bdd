"""Executor backends of the evaluation engine.

Two backends decide how :meth:`~repro.engine.EvaluationEngine.map` runs
(analytic spec evaluation is always inline, whatever the backend):

* ``serial``  — no executor at all; zero overhead, the right choice for
  cheap work and for debugging.
* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`; true
  parallelism for CPU-bound work (layout generation, high-fidelity
  Monte-Carlo evaluation).  Work functions and their arguments must be
  picklable.

The pool is created lazily and reused across calls so repeated fan-outs
amortize the spawn cost.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.errors import EngineError

#: The recognised backend names, in increasing isolation order.
BACKENDS: Tuple[str, ...] = ("serial", "process")


def validate_backend(backend: str) -> str:
    """Return ``backend`` lower-cased, raising on unknown names."""
    name = str(backend).lower()
    if name not in BACKENDS:
        raise EngineError(
            f"unknown engine backend {backend!r}; choose from {BACKENDS}"
        )
    return name


def resolve_workers(workers: Optional[int]) -> int:
    """Number of pool workers: explicit value or the machine's CPU count."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    if workers < 1:
        raise EngineError("workers must be at least 1")
    return int(workers)

