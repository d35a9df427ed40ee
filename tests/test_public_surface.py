"""Every exported function has a user outside the tests.

A package's public names are its :func:`repro._lazy.lazy_exports` map.
Each exported name that its submodule defines with ``def`` must be
referred to by code in ``src/``, ``benchmarks/``, ``tools/`` or
``examples/``: a name, an attribute or an imported name.  Its own
definition and the export entries do not count, and neither does a
mention in a docstring, a comment or an ``__all__`` list, so a function
that only its tests call fails here.  Classes and constants are not
checked.
"""

import ast
import importlib
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ROOT = SRC.parents[1]
USER_DIRS = ("src", "benchmarks", "tools", "examples")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_export_map(node: ast.stmt) -> bool:
    return any(isinstance(sub, ast.Call)
               and getattr(sub.func, "id", None) == "lazy_exports"
               for sub in ast.walk(node))


def _names(tree: ast.Module, skip_def: str | None = None) -> set[str]:
    """The names ``tree``'s code refers to — identifiers, attributes and
    imported names — outside its export maps and outside the top-level
    ``def`` named ``skip_def``."""
    found = set()
    for node in tree.body:
        if _is_export_map(node) or (isinstance(node, DEFS)
                                    and node.name == skip_def):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.alias):
                found.update(sub.name.split("."))
    return found


def _exported_functions(sources):
    """(name, defining file) of every exported ``def``."""
    for init in sorted(SRC.rglob("__init__.py")):
        if "lazy_exports(" not in init.read_text():
            continue
        package = ".".join(init.parent.relative_to(SRC.parent).parts)
        exports = importlib.import_module(package)._lazy_exports
        for name, submodule in sorted(exports.items()):
            path = SRC.parent.joinpath(*f"{package}.{submodule}".split("."))
            path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
            if any(isinstance(node, DEFS) and node.name == name
                   for node in sources[path].body):
                yield name, path


def test_every_exported_function_has_a_user():
    sources = {
        path: ast.parse(path.read_text())
        for top in USER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    names = {path: _names(tree) for path, tree in sources.items()}
    unused = [
        f"{defining.relative_to(SRC.parent)}:{name}"
        for name, defining in _exported_functions(sources)
        if name not in _names(sources[defining], skip_def=name)
        and not any(name in found for path, found in names.items()
                    if path != defining)
    ]
    assert not unused, f"exported but used only by tests: {unused}"
