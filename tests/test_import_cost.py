"""Import cost follows use: a bare session loads no physical stack.

The package namespaces ``repro``, ``repro.arch``, ``repro.model``,
``repro.dse`` and ``repro.physical`` resolve their public names on first
use (PEP 562, :mod:`repro._lazy`).  These tests pin both halves of that
contract in fresh interpreters, so modules the rest of the suite already
imported cannot mask a name that fails to resolve: what a bare
``Session`` must not import, and that every ``__all__`` name still
resolves — by attribute, by ``from ... import *`` and in ``dir()`` — to
the very object its defining module holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Subsystems a store-less ``Session(SessionConfig())`` must not import.
PHYSICAL_STACK = (
    "repro.physical",
    "repro.flow",
    "repro.routing",
    "repro.layout",
    "repro.placement",
    "repro.cells",
    "repro.netlist",
    "repro.sim",
    "repro.store",
)

#: Packages whose ``__all__`` is checked name by name.
PUBLIC_PACKAGES = (
    "repro",
    "repro.api",
    "repro.arch",
    "repro.model",
    "repro.dse",
    "repro.physical",
)

#: Defining modules of the exported non-class, non-function objects.
CONSTANT_HOMES = {
    "COMPUTE_MODEL_CATALOG": "repro.arch.compute_models",
    "MACRO_STAGE": "repro.physical.macro_library",
    "PIPELINE_STAGES": "repro.names",
    "REQUEST_TYPES": "repro.api.requests",
    "STRUCTURAL_PARAMS": "repro.physical.templates",
    "TECHNOLOGIES": "repro.api.session",
    "__version__": "repro",
}


def _run(script: str) -> str:
    """Run ``script`` in a fresh interpreter on this checkout; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_bare_session_imports_no_physical_stack():
    loaded = json.loads(_run("""
        import json, sys
        from repro.api import Session, SessionConfig
        session = Session(SessionConfig())
        session.close()
        print(json.dumps(sorted(sys.modules)))
    """))
    assert "repro.model.estimator" in loaded
    assert "repro.engine.engine" in loaded
    for package in PHYSICAL_STACK:
        assert package not in loaded, package
        assert not [name for name in loaded if name.startswith(package + ".")]


def test_physical_requests_import_what_they_use():
    loaded = json.loads(_run("""
        import json, sys
        from repro.api import EstimateRequest, LibraryRequest, Session
        with Session() as session:
            assert session.submit(EstimateRequest()).ok
            after_estimate = sorted(sys.modules)
            assert session.submit(LibraryRequest()).ok
        print(json.dumps([after_estimate, sorted(sys.modules)]))
    """))
    after_estimate, after_library = loaded
    assert "repro.physical" not in after_estimate
    assert "repro.cells.library" not in after_estimate
    assert "repro.cells.library" in after_library


@pytest.mark.parametrize("package", PUBLIC_PACKAGES)
def test_every_public_name_resolves_to_its_defining_object(package):
    problems = json.loads(_run(f"""
        import importlib, inspect, json
        homes = {CONSTANT_HOMES!r}
        package = importlib.import_module({package!r})
        problems = []
        star = {{}}
        exec("from {package} import *", star)
        listed = dir(package)
        for name in package.__all__:
            value = getattr(package, name)
            if name not in star or star[name] is not value:
                problems.append(f"{{name}}: not bound by import *")
            if name not in listed:
                problems.append(f"{{name}}: missing from dir()")
            if inspect.isclass(value) or inspect.isfunction(value):
                home = value.__module__
            else:
                home = homes[name]
            if getattr(importlib.import_module(home), name) is not value:
                problems.append(f"{{name}}: differs from {{home}}.{{name}}")
        print(json.dumps(problems))
    """))
    assert problems == []


def test_lazy_packages_still_resolve_submodules_and_reject_typos():
    assert _run("""
        import repro, repro.physical
        from repro.physical import pipeline
        assert repro.physical.pipeline is pipeline
        assert repro.dse.distill.__module__ == "repro.dse.distill"
        assert callable(repro.dse.distill)
        for module, name in ((repro, "EasyACIMFlow"), (repro.physical, "nope")):
            try:
                getattr(module, name)
            except AttributeError as error:
                assert repr(name) in str(error)
            else:
                raise AssertionError(name)
        print("ok")
    """).strip() == "ok"


def test_concurrent_first_lookups_get_one_object():
    assert _run("""
        import threading
        import repro.physical

        barrier = threading.Barrier(4)
        seen = []

        def lookup():
            barrier.wait()
            seen.append(repro.physical.PhysicalPipeline)

        threads = [threading.Thread(target=lookup) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        from repro.physical.pipeline import PhysicalPipeline
        assert len(seen) == 4 and all(cls is PhysicalPipeline for cls in seen)
        print("ok")
    """).strip() == "ok"
