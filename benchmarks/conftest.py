"""Shared fixtures and collection rules for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section (see DESIGN.md's experiment index) and prints the
reproduced rows/series.  The modules are named ``bench_*.py`` so the
tier-1 run (``testpaths = ["tests"]``) never picks them up; the
:func:`pytest_collect_file` hook below collects them whenever this
directory is given to pytest, so

    pytest benchmarks/ --benchmark-only -s

produces both the timing data and the paper-facing numbers, and

    pytest -q benchmarks --benchmark-disable

(``make paper-bench-smoke``, part of ``make ci``) runs every benchmark
once as a plain test.  The script-style modules (``bench_serve.py``,
``bench_physical_pipeline.py``, ...) define no ``test_*`` functions and
contribute nothing to either run.
"""

from __future__ import annotations

import pytest

from repro.cells.library import default_cell_library
from repro.model.estimator import ACIMEstimator
from repro.technology.tech import generic28


def pytest_collect_file(file_path, parent):
    """Collect the ``bench_*.py`` modules of this directory as test modules.

    A module named on the command line is already collected by pytest
    itself, so it is skipped here rather than collected twice.
    """
    if (
        file_path.suffix == ".py"
        and file_path.name.startswith("bench_")
        and not parent.session.isinitpath(file_path)
    ):
        return pytest.Module.from_parent(parent, path=file_path)
    return None


@pytest.fixture(scope="session")
def technology():
    """The synthetic generic 28 nm technology."""
    return generic28()


@pytest.fixture(scope="session")
def cell_library(technology):
    """The default cell library shared by the layout benchmarks."""
    return default_cell_library(technology)


@pytest.fixture(scope="session")
def estimator():
    """Default estimation model used by the model-level benchmarks."""
    return ACIMEstimator()
