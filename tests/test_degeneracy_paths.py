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
Taylor shift or a scalar evaluation.  A moment series is read through its
kept integer form: no module outside ``exactkernel`` clears a series'
scalars again, and ``TruncatedSeries`` turns one form into the other in
one method each.
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


# what clears scalars to numerators, and what returns a series
CLEARINGS = {"_clear_denominators", "_CommonDenominator", "numerator_rows"}
SERIES_MAKERS = {
    "TruncatedSeries",
    "_of_numerators",
    "moments",
    "solve_moments",
    "series_of_rational",
    "module_trace",
    "series",
    "truncate",
}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return getattr(func, "attr", None) or getattr(func, "id", None)


def _is_series_annotation(node) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "TruncatedSeries" in node.value
    return node is not None and "TruncatedSeries" in _identifiers(node)


def _series_clearings(source: str) -> list[str]:
    """Each call of a ``CLEARINGS`` name, in any function, whose arguments
    read a series other than by ``.numerators()``: a parameter annotated
    ``TruncatedSeries``, a name assigned from a ``SERIES_MAKERS`` call, or
    such a call itself, whether through ``.coeffs``, indexing or iteration."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        series = {a.arg for a in args if _is_series_annotation(a.annotation)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if _callee(node.value) in SERIES_MAKERS:
                    series |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and _callee(node) in CLEARINGS):
                continue
            todo = node.args + [k.value for k in node.keywords]
            while todo:
                sub = todo.pop()
                if isinstance(sub, ast.Call) and _callee(sub) == "numerators":
                    continue  # the kept integer form itself
                if (
                    isinstance(sub, ast.Name) and sub.id in series
                    or isinstance(sub, ast.Call) and _callee(sub) in SERIES_MAKERS
                ):
                    found.add(f"{fn.name}: {ast.unparse(node)}")
                todo.extend(ast.iter_child_nodes(sub))
    return sorted(found)


def _methods_naming(source: str, cls: str, names: set[str]) -> list[str]:
    """The methods of class ``cls`` whose bodies name any of ``names``."""
    return sorted(
        fn.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name == cls
        for fn in node.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and names & _identifiers(fn)
    )


def test_no_module_clears_a_series_again():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "exactkernel":
            if hits := _series_clearings(path.read_text()):
                found[path.stem] = hits
    assert found == {}


def test_truncated_series_makes_each_form_in_one_place():
    kernel = (PACKAGE / "exactkernel.py").read_text()
    scalars = {"_from_numerators", "_to_scalars"}
    assert _methods_naming(kernel, "TruncatedSeries", scalars) == ["coeffs"]
    numerators = {"_clear_denominators"}
    assert _methods_naming(kernel, "TruncatedSeries", numerators) == ["numerators"]


def test_series_scans_catch_each_form():
    clearings = (
        "def a(moments: TruncatedSeries):\n"
        "    return _clear_denominators(moments.coeffs)\n"
        "def b(spec, n):\n"
        "    return _clear_denominators(spec.moments(n).coeffs)\n"
        "def c(spec, n):\n"
        "    mu = solve_moments(spec, n)\n"
        "    return _clear_denominators(mu)\n"
        "def d(mu: 'TruncatedSeries', n):\n"
        "    return numerator_rows([[mu[i + j] for j in range(n)] for i in range(n)])\n"
        "class E:\n"
        "    def e(self, moments: TruncatedSeries):\n"
        "        return _CommonDenominator(c for c in moments)\n"
        "def f(R, S):\n"
        "    def g():\n"
        "        return _clear_denominators(values=series_of_rational(R, S, 3))\n"
        "def h(q: DensePolynomial, mu: TruncatedSeries):\n"
        "    return _clear_denominators(q.coeffs), _CommonDenominator(*mu.numerators())\n"
    )
    assert [hit.split(":")[0] for hit in _series_clearings(clearings)] == [
        "a", "b", "c", "d", "e", "f", "g"
    ]
    methods = (
        "class TruncatedSeries:\n"
        "    def coeffs(self):\n        return _from_numerators(1, 0, 1)\n"
        "    def order(self):\n        return _to_scalars([], [], 1, 1)\n"
        "    def numerators(self):\n        return _clear_denominators(())\n"
        "class PrincipalParts:\n"
        "    def series(self):\n        return _from_numerators(1, 0, 1)\n"
    )
    scalars = {"_from_numerators", "_to_scalars"}
    assert _methods_naming(methods, "TruncatedSeries", scalars) == ["coeffs", "order"]
