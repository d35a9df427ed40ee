"""Every test directory is collected: no name pytest silently skips.

pytest's default ``norecursedirs`` contains ``dist`` and ``build``, so
for seventeen PRs the tier-1 command collected none of ``tests/dist``.
``pyproject.toml`` now sets the list explicitly; this guard fails if a
directory holding tests matches any pattern on it.
"""

from fnmatch import fnmatch
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_no_test_directory_is_skipped(pytestconfig):
    patterns = pytestconfig.getini("norecursedirs")
    test_dirs = {f.parent.relative_to(TESTS) for f in TESTS.rglob("test_*.py")}
    skipped = sorted(
        str(d) for d in test_dirs
        if any(fnmatch(part, pat) for part in d.parts for pat in patterns)
    )
    assert not skipped, f"norecursedirs {patterns} drops {skipped}"
