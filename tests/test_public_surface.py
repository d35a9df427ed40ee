"""Every exported function has a user outside the tests.

A package's public names are its :func:`repro._lazy.lazy_exports` map.
Each exported name that its submodule defines with ``def`` must be named
somewhere in ``src/``, ``benchmarks/``, ``tools/`` or ``examples/``.  Its
own definition and the export entries do not count, so a function that
only its tests call fails here.  Classes and constants are not checked.
"""

import ast
import importlib
import re
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


def _words(text: str, tree: ast.Module, skip_def: str | None = None) -> set[str]:
    """The identifiers in ``text`` outside its export maps and outside
    the top-level ``def`` named ``skip_def``."""
    lines = text.splitlines()
    for node in tree.body:
        if _is_export_map(node) or (isinstance(node, DEFS)
                                    and node.name == skip_def):
            first = min([node.lineno,
                         *(d.lineno for d in getattr(node, "decorator_list", ()))])
            lines[first - 1:node.end_lineno] = [""] * (node.end_lineno - first + 1)
    return set(re.findall(r"\w+", "\n".join(lines)))


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
                   for node in sources[path][1].body):
                yield name, path


def test_every_exported_function_has_a_user():
    sources = {
        path: (text := path.read_text(), ast.parse(text))
        for top in USER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    words = {path: _words(*source) for path, source in sources.items()}
    unused = [
        f"{defining.relative_to(SRC.parent)}:{name}"
        for name, defining in _exported_functions(sources)
        if name not in _words(*sources[defining], skip_def=name)
        and not any(name in found for path, found in words.items()
                    if path != defining)
    ]
    assert not unused, f"exported but used only by tests: {unused}"
