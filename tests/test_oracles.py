"""The oracles stay independent of the code they check.

``oracles`` may take only the scalar, polynomial and series types and the
``GR_*`` constants from ``kleintrace``; importing a function would let a
fast path check itself.  Nor may it call the methods whose bodies are
the fast paths: the expansion of P, the Taylor shift, the recombination of
principal parts, the trace's own expansion of Q/P and its moments.  The
Lerch moments reach no row-by-row moment solver, not even the oracle's.
"""

import ast
from pathlib import Path

ALLOWED = {
    "GaussianRational",
    "DensePolynomial",
    "TruncatedSeries",
    "FactoredPolynomial",
}

FORBIDDEN_METHODS = {
    "expand",
    "shift",
    "quotient_poly",
    "to_rational",
    "difference_parts",
    "moments",
    "trace_of_poly",
}

# what the Lerch oracle must not reach: the solvers and their expansion of Q/P
SOLVERS = {"_difference_sums", "solve_moments", "_series_numerators"}

ORACLES = Path(__file__).parent / "oracles.py"


def _methods_called(source: str) -> set[str]:
    """The attribute names that ``source`` calls, as in ``P.expand()``."""
    return {
        node.func.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }


def _reached(source: str, root: str) -> set[str]:
    """The names that function ``root`` of ``source`` calls, plainly or as
    attributes, and those that the module's functions it calls reach."""
    defs = {
        node.name: node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
    }
    seen, todo = set(), [root]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                if name and name not in seen:
                    seen.add(name)
                    if name in defs:
                        todo.append(name)
    return seen


def test_oracles_import_only_types_and_constants():
    tree = ast.parse(ORACLES.read_text())
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "kleintrace" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "kleintrace":
                taken += [a.name for a in node.names]
    assert taken
    assert all(name in ALLOWED or name.startswith("GR_") for name in taken), taken


def test_oracles_call_no_fast_path_method():
    source = ORACLES.read_text()
    assert not FORBIDDEN_METHODS & _methods_called(source)


def test_lerch_oracle_reaches_no_moment_solver():
    reached = _reached(ORACLES.read_text(), "lerch_moments")
    assert "series_of_rational" in reached
    assert not SOLVERS & reached, SOLVERS & reached


def test_solver_scan_catches_each_name_and_each_hop():
    for name in SOLVERS:
        direct = f"def lerch_moments(s):\n    return {name}(s)\n"
        method = f"def lerch_moments(s):\n    return s.{name}(1)\n"
        hop = (
            f"def helper(s):\n    return {name}(s)\n\n\n"
            "def lerch_moments(s):\n    return helper(s)\n"
        )
        for snippet in (direct, method, hop):
            assert SOLVERS & _reached(snippet, "lerch_moments") == {name}, snippet


def test_method_scan_catches_each_name():
    snippets = {
        "expand": "def f(P):\n    return P.expand()\n",
        "shift": "def f(p, h):\n    return p.shift(h)\n",
        "quotient_poly": "def f(P, a):\n    return P.quotient_poly(a, 1)\n",
        "to_rational": "def f(parts):\n    R, S = parts.to_rational()\n    return R\n",
        "difference_parts": (
            "class A:\n    def f(self, spec):\n        return spec.difference_parts()\n"
        ),
        "moments": "def f(spec):\n    return spec.moments(4)\n",
        "trace_of_poly": "def f(spec, q):\n    return spec.trace_of_poly(q)\n",
    }
    assert set(snippets) == FORBIDDEN_METHODS
    for name, snippet in snippets.items():
        assert FORBIDDEN_METHODS & _methods_called(snippet) == {name}, name
