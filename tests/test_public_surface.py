"""Every public name has a caller outside the tests, or is paper surface.

A name of ``kleintrace.__all__`` counts as used when some module of the
package other than ``__init__.py`` names it outside its own definition, or
when ``kleinbench/`` names it, as an identifier or as a dotted string such
as the span names of ``kleinbench/spans.py``.  A name that only the tests
use either goes (into the test that uses it, or away), or is listed in
``PAPER_SURFACE``: API the paper defines, kept for users of the library.
"""

import ast
import re
from pathlib import Path

import kleintrace

PACKAGE = Path(kleintrace.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "kleinbench"

PAPER_SURFACE = (
    "is_n_degenerate",  # the paper's n-degeneracy, one n at a time
    "pullback_spec",  # the paper's pullback of traces along P -> P Q1 Q2
)

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _names(tree, skip: str | None = None) -> set[str]:
    """Every name, attribute, imported name and dotted-string part under
    ``tree``, leaving out the function or class that defines ``skip``."""
    out, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name == skip
        ):
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update((node.name.split(".")[-1], node.asname or node.name))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                out.update(node.value.split("."))
        todo.extend(ast.iter_child_nodes(node))
    return out


def unused_names(public, package: dict, bench: list) -> list[str]:
    """The names of ``public`` that no tree of ``package`` (module name ->
    tree, ``__init__`` excluded) names outside their own definition and no
    tree of ``bench`` names at all."""
    used = set()
    for tree in bench:
        used |= _names(tree)
    trees = [tree for name, tree in package.items() if name != "__init__"]
    return sorted(
        name
        for name in public
        if name not in used and not any(name in _names(t, name) for t in trees)
    )


def _parsed(paths) -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in paths}


def test_every_public_name_is_used_or_paper_surface():
    package = _parsed(sorted(PACKAGE.glob("*.py")))
    bench = list(_parsed(sorted(BENCH.rglob("*.py"))).values())
    unused = unused_names(kleintrace.__all__, package, bench)
    assert unused == sorted(PAPER_SURFACE)


def test_a_planted_unused_name_is_caught():
    package = {
        "__init__": ast.parse("from .a import planted, used, cited, recursive\n"),
        "a": ast.parse(
            "def planted():\n    return 1\n"
            "def used():\n    return 2\n"
            "def cited():\n    return 3\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        ),
        "b": ast.parse("from .a import used\nx = used()\n"),
    }
    bench = [ast.parse("SPANS = ('a.cited',)\n")]
    public = ("planted", "used", "cited", "recursive")
    assert unused_names(public, package, bench) == ["planted", "recursive"]
