"""Every name defined in ``src/repro`` has a caller outside ``tests/``.

The rule: a module-level function or class, or a method of a
module-level class, must be named somewhere in ``src/``,
``benchmarks/``, ``perfbench/`` or ``examples/`` other than its own
``def``/``class`` line.  A name counts as referenced on a whole-word
match in any line of those trees, docstrings and comments included,
except ``__all__`` entries and ``from ... import`` lines under ``src/``:
a re-export is not a use.  A name that only tests call is test-only API
and belongs in ``tests/``.

Some names stay although only tests call them: reference
implementations the tests compare production code against, names
reached through a registry or dispatch rather than by name, readers for
old on-disk formats, seams that let a test substitute a fake, and
dunder or protocol methods.  Most of those are already named in a
docstring or through their registry; the ones the rule flags are listed
in :data:`ALLOWED` with the reason they stay.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "benchmarks", "perfbench", "examples")

#: ``Class.method`` or module-level name -> why it stays test-only.
ALLOWED = {
    "DBSCAN.fit_predict": "protocol: scikit-learn's clusterer interface",
}

_WORD = re.compile(r"[A-Za-z_]\w*")


def _definitions():
    """``(path, lineno, qualified name, bare name)`` for every audited def."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield path, node.lineno, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualified = f"{node.name}.{item.name}"
                        yield path, item.lineno, qualified, item.name


def _references():
    """Word -> set of ``(path, lineno)`` lines that use it.

    A ``def``/``class`` line does not use the name it defines.
    """
    refs = defaultdict(set)
    defined = set()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            skipped = set()
            for node in ast.walk(ast.parse(text)):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    defined.add((node.name, path, node.lineno))
                exported = isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                )
                reexport = top == "src" and isinstance(node, ast.ImportFrom)
                if exported or reexport:
                    skipped.update(range(node.lineno, node.end_lineno + 1))
            for lineno, line in enumerate(text.splitlines(), 1):
                if lineno not in skipped:
                    for word in set(_WORD.findall(line)):
                        refs[word].add((path, lineno))
    for name, path, lineno in defined:
        refs[name].discard((path, lineno))
    return refs


def _test_only_names():
    refs = _references()
    found = []
    for path, lineno, qualified, name in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        if refs[name]:
            continue
        found.append((qualified, f"{path.relative_to(ROOT)}:{lineno}"))
    return found


def test_no_test_only_api_in_src():
    unreferenced = [
        (name, where)
        for name, where in _test_only_names()
        if name not in ALLOWED
    ]
    assert not unreferenced, (
        "no caller outside tests/ (delete it, move it to tests/, or add "
        f"it to ALLOWED with the reason it stays): {unreferenced}"
    )


def test_allowlist_is_current():
    flagged = {name for name, _ in _test_only_names()}
    stale = sorted(set(ALLOWED) - flagged)
    assert not stale, f"ALLOWED entries that now have a caller: {stale}"
