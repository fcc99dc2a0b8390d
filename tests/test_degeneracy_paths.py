"""Degeneracy reads Q/P and the cosets of P through one path each.

The principal parts of Q/P come from the trace's own expansion
(``TraceSpec.difference_parts``), and a sum of c P/(x - a)^k from
``exactkernel.q_from_principal_parts``, so ``degeneracy.py`` names neither
``partial_fractions`` nor ``quotient_poly``.  The coset of each root and
its offset come from ``_roots_by_coset`` alone.  No package module divides
one polynomial by another: coprimality is a Hankel rank
(``selftest._gcd_degree``), and the long division and the Euclidean gcd
live only in ``tests/oracles.py``.  ``findim`` takes P at a shifted point
off the truncated root product alone, never through an expansion, a
Taylor shift or a scalar evaluation.
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


DIVISION = {"divmod", "monic", "poly_gcd"}


def _polynomial_division(source: str) -> list[str]:
    """Each definition of a ``DIVISION`` name, each call of one as a method,
    and each use of ``poly_gcd`` at all; the builtin ``divmod(a, b)`` on
    integers is none of these."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in DIVISION:
                found.append(f"defines {node.name}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in DIVISION:
                found.append(f"calls .{node.func.attr}")
        elif (
            isinstance(node, ast.Name) and node.id == "poly_gcd"
            or isinstance(node, ast.Attribute) and node.attr == "poly_gcd"
            or isinstance(node, ast.alias) and node.name.split(".")[-1] == "poly_gcd"
        ):
            found.append("names poly_gcd")
    return found


def test_no_module_defines_or_calls_divmod_or_poly_gcd():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if hits := _polynomial_division(path.read_text()):
            found[path.stem] = hits
    assert found == {}


FINDIM_BYPASSES = {"expand", "shift", "evaluate"}


def _methods(source: str, cls: str) -> set[str]:
    """The names of the methods that class ``cls`` defines in ``source``."""
    return {
        fn.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name == cls
        for fn in node.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_findim_reads_p_off_the_root_product_only():
    tree = ast.parse((PACKAGE / "findim.py").read_text())
    assert not FINDIM_BYPASSES & _identifiers(tree)
    kernel = (PACKAGE / "exactkernel.py").read_text()
    assert "evaluate" not in _methods(kernel, "FactoredPolynomial")


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
    division = (
        "class A:\n    def divmod(self, b):\n        return b\n"
        "def monic(p):\n    return p\n"
        "def f(a, b):\n    return a.divmod(b)[1].monic()\n"
        "from .exactkernel import poly_gcd as g\n"
        "import kleintrace\n"
        "h = kleintrace.poly_gcd\n"
        "def k(a, b):\n    return poly_gcd(a, b)\n"
    )
    assert sorted(_polynomial_division(division)) == sorted(
        ["defines divmod", "defines monic", "calls .divmod", "calls .monic"]
        + ["names poly_gcd"] * 3
    )
    assert _polynomial_division("def q(a, b):\n    return divmod(a, b)\n") == []
    bypasses = (
        "from .exactkernel import shift as s\n"
        "def f(P, h):\n    return P.expand()\n"
        "class A:\n    def g(self, P):\n        return evaluate(P, 0)\n"
    )
    assert {"shift", "expand", "evaluate"} <= _identifiers(ast.parse(bypasses))
    methods = (
        "class FactoredPolynomial:\n    def evaluate(self, x):\n        return x\n"
        "class DensePolynomial:\n    def expand(self):\n        return self\n"
        "def shift(p):\n    return p\n"
    )
    assert _methods(methods, "FactoredPolynomial") == {"evaluate"}
