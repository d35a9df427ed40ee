"""Package namespaces whose re-exports import on first touch.

Every ``repro`` package ``__init__`` declares its public names with
:func:`lazy_exports` instead of importing the submodules that define
them, so the import graph of a run follows its call graph: ``from
repro.core import KPMSolver`` loads ``repro.core.solver`` and what that
needs, not the other eight ``repro.core`` modules (DESIGN, "import
graph").  PEP 562 semantics — a miss in the module dict resolves the
name and caches it there — carried on the module's class rather than a
module-level ``__getattr__``, because three exports share their
submodule's name and need the ``__setattr__`` below.
"""

from __future__ import annotations

import importlib
import sys
import types


class _LazyPackage(types.ModuleType):
    """The class of a package made lazy by :func:`lazy_exports`, which
    sets ``_lazy_exports`` (export name -> defining submodule) first."""

    def __getattr__(self, name: str):
        submodule = self._lazy_exports.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            )
        module = importlib.import_module(f"{self.__name__}.{submodule}")
        value = self.__dict__[name] = getattr(module, name)
        return value

    def __dir__(self):
        return sorted({*self.__dict__, *self._lazy_exports})

    def __setattr__(self, name: str, value) -> None:
        # The import system binds every loaded submodule on its package.
        # Where an export is named like its submodule (repro.dist.tune,
        # repro.perf.roofline) the export keeps the name, as it did when
        # __init__ ran ``from .tune import tune``.
        if (isinstance(value, types.ModuleType)
                and self._lazy_exports.get(name) == name
                and value.__name__ == f"{self.__name__}.{name}"):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]) -> list[str]:
    """Make ``package`` resolve ``exports`` lazily; returns its ``__all__``.

    ``exports`` maps a submodule (relative to ``package``) to the names
    re-exported from it.
    """
    module = sys.modules[package]
    module._lazy_exports = {
        name: submodule for submodule, names in exports.items() for name in names
    }
    module.__class__ = _LazyPackage
    return list(module._lazy_exports)
