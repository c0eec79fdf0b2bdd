"""Lazy package namespaces: import a submodule when one of its names is used.

A package ``__init__`` lists, per submodule, the public names it defines
— the table that eager ``from ... import ...`` lines used to spell — and
hands it to :func:`lazy_exports`, which returns the PEP 562 module-level
``__getattr__`` and ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.physical.pipeline": ("PhysicalPipeline", "PipelineResult"),
    })

``import repro.physical`` then costs nothing beyond the package file; the
first ``repro.physical.PhysicalPipeline`` (or ``from repro.physical import
PhysicalPipeline``) imports ``repro.physical.pipeline`` and caches the
value in the package namespace, so later lookups are plain attribute
reads.  A name outside the table resolves as a submodule, as it would
after an eager import, so ``repro.physical.pipeline`` keeps working on a
bare ``import repro.physical``.  Concurrent first lookups are safe: the
import system's per-module lock serializes the submodule import.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, sources: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` of ``package`` over ``sources``.

    Args:
        package: the package's ``__name__``.
        sources: absolute module name -> the public names it defines.
    """
    exports = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str) -> object:
        source = exports.get(name)
        if source is not None:
            value = getattr(importlib.import_module(source), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("_"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
