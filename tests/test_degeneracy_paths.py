"""Degeneracy reads Q/P and the cosets of P through one path each.

The principal parts of Q/P come from the trace's own expansion
(``TraceSpec.difference_parts``), and a sum of c P/(x - a)^k from
``exactkernel.q_from_principal_parts``, so ``degeneracy.py`` names neither
``partial_fractions`` nor ``quotient_poly``.  The coset of each root and
its offset come from ``_roots_by_coset`` alone.  ``DensePolynomial.divmod``
serves only the Euclidean gcd.
"""

import ast
from pathlib import Path

import kleintrace

PACKAGE = Path(kleintrace.__file__).parent


def _identifiers(node) -> set[str]:
    """Every name, attribute and imported name under a node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update((n.name.split(".")[-1], n.asname or n.name))
    return out


def _functions_naming(source: str, names: set[str]) -> list[str]:
    """The functions, nested ones and methods included, that name any of
    ``names``."""
    return sorted(
        {
            fn.name
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and names & _identifiers(fn)
        }
    )


def test_degeneracy_never_expands_q_over_p_itself():
    tree = ast.parse((PACKAGE / "degeneracy.py").read_text())
    assert not {"partial_fractions", "quotient_poly"} & _identifiers(tree)


def test_degeneracy_walks_cosets_in_one_helper():
    source = (PACKAGE / "degeneracy.py").read_text()
    names = {"coset_key", "integer_offset"}
    assert _functions_naming(source, names) == ["_roots_by_coset"]
    # outside functions and classes, only the import names them
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            if names & _identifiers(stmt):
                assert isinstance(stmt, ast.ImportFrom), ast.unparse(stmt)


def test_divmod_serves_only_the_gcd():
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = [
                    n for n in ast.walk(fn)
                    if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "divmod"
                ]
                if calls:
                    callers.append(f"{path.stem}.{fn.name}")
    assert callers == ["exactkernel.poly_gcd"]


def test_scans_catch_each_form():
    source = (
        "from .exactkernel import partial_fractions as pf\n"
        "def a(P):\n    return P.quotient_poly(0, 1)\n"
        "class B:\n    def b(self, x):\n        return coset_key(x)\n"
        "def c():\n    def d(x):\n        return integer_offset(x, 0)\n"
        "def e(coset_key_list):\n    return coset_key_list\n"
    )
    assert {"partial_fractions", "pf", "quotient_poly"} <= _identifiers(
        ast.parse(source)
    )
    assert _functions_naming(source, {"coset_key", "integer_offset"}) == [
        "b", "c", "d"
    ]
