"""Degeneracy reads Q/P and the cosets of P through one path each.

The principal parts of Q/P come from the trace's own expansion
(``TraceSpec.difference_parts``), so ``degeneracy.py`` names neither
``partial_fractions`` nor ``quotient_poly``.  Every sum of c P/(x - a)^k
comes from one kernel, ``exactkernel._q_sums``, the one function besides
the Taylor shift and the partial fractions that divides by (x - a):
``q_from_principal_parts`` is its one-group case, and ``degeneracy.py``
hands it its terms.  The coset of each root and its offset come from one
walk over P's cleared roots, ``exactkernel._roots_by_coset``, the one
function that names ``coset_key``; ``lerch`` reads it from ``exactkernel``
and imports nothing from ``degeneracy``.  No package module divides
one polynomial by another: coprimality is a Hankel rank
(``selftest._gcd_degree``), and the long division and the Euclidean gcd
live only in ``tests/oracles.py``.  ``findim`` takes P at a shifted point
off the truncated root product alone, never through an expansion, a
Taylor shift or a scalar evaluation.  Products of linear root factors are
built only in ``exactkernel``, the one module that names ``_root_slots``,
and every product of shifted copies of P is its ``_shifted_product``, on
cleared roots; no module defines ``_root_product``, which shifted scalar
roots.  A series is its integer form: no
module outside ``exactkernel`` clears a series' scalars again, no producer
builds a series from scalars made of its own numerators, and
``TruncatedSeries`` holds only integers, makes a scalar in one place and
reduces numerators in one constructor.  Degeneracy steps the twist t on
its cleared numerators: no function there raises a scalar to a power or
builds one, but the Delta report's (1/t)^o.
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


def test_every_q_is_summed_by_one_kernel():
    kernel = (PACKAGE / "exactkernel.py").read_text()
    assert _functions_naming(kernel, {"_divide_rounds"}) == [
        "_q_sums", "partial_fractions", "shift"
    ]
    names = _identifiers(ast.parse((PACKAGE / "degeneracy.py").read_text()))
    assert "_q_sums" in names
    assert not {"_divide_rounds", "q_from_principal_parts"} & names


def _defines(source: str, name: str) -> bool:
    return any(
        isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == name
        for fn in ast.walk(ast.parse(source))
    )


def _imports(source: str, module: str) -> bool:
    """Whether ``source`` imports ``module`` or a name from it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[-1] == module:
                return True
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(a.name.split(".")[-1] == module for a in node.names):
                return True
    return False


def test_degeneracy_walks_cosets_in_one_helper():
    # the walk lives in exactkernel, next to coset_key, and is the one
    # function of the package that names coset_key or integer_offset
    names = {"coset_key", "integer_offset"}
    naming, walks = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        if found := _functions_naming(source, names):
            naming[path.stem] = found
        if _defines(source, "_roots_by_coset"):
            walks.append(path.stem)
        # outside functions and classes, only an import names them
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if names & _identifiers(stmt):
                    assert isinstance(stmt, ast.ImportFrom), ast.unparse(stmt)
    assert naming == {"exactkernel": ["_roots_by_coset"]}
    assert walks == ["exactkernel"]
    # lerch reads the walk off P, not through degeneracy
    assert not _imports((PACKAGE / "lerch.py").read_text(), "degeneracy")


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


def _root_slot_uses(source: str) -> list[str]:
    """Each name of ``_root_slots``, and each definition or name of
    ``_root_product``, in ``source``."""
    found = [f"names {n}" for n in ("_root_slots", "_root_product")
             if n in _identifiers(ast.parse(source))]
    if _defines(source, "_root_product"):
        found.append("defines _root_product")
    return found


def test_only_the_kernel_builds_root_slots():
    # every product of linear root factors is slots of exactkernel, and
    # every product of shifted copies of P is its one _shifted_product
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if hits := _root_slot_uses(path.read_text()):
            found[path.stem] = hits
    assert found == {"exactkernel": ["names _root_slots"]}
    kernel = (PACKAGE / "exactkernel.py").read_text()
    assert _functions_naming(kernel, {"_root_slots"}) == [
        "_q_sums", "_shifted_product", "_slot_form", "partial_fractions"
    ]


def test_root_slot_scan_catches_each_form():
    for source, hits in (
        ("from .exactkernel import _root_slots as rs\n", ["names _root_slots"]),
        ("def f(ek, r):\n    return ek._root_slots(r, 3)\n", ["names _root_slots"]),
        ("class A:\n    def _root_product(self):\n        return 1\n",
         ["defines _root_product"]),
        ("def f():\n    def _root_product(x):\n        return x\n",
         ["defines _root_product"]),
        ("_root_product = None\n", ["names _root_product"]),
        ("from .algebra import _root_product\n", ["names _root_product"]),
        ("def f(root_slots):\n    return '_root_slots', root_slots\n", []),
    ):
        assert _root_slot_uses(source) == hits, source


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
    assert not _defines(source, "_roots_by_coset")
    assert _defines("class W:\n    def _roots_by_coset(self):\n        pass\n",
                    "_roots_by_coset")
    for imports in (
        "from .degeneracy import _roots_by_coset\n",
        "from . import degeneracy\n",
        "import kleintrace.degeneracy as d\n",
        "from kleintrace.degeneracy import delta_criterion\n",
    ):
        assert _imports(imports, "degeneracy"), imports
    assert not _imports("from .exactkernel import _roots_by_coset\n", "degeneracy")
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


def _scalar_steps(source: str) -> list[str]:
    """Each ``**``, as an operator or augmented, each ``pow(...)`` call and
    each ``GaussianRational(...)`` call in ``source``, as "function: code"
    for the innermost function around it, or ``<module>``."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            else:
                name = fn
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(
                child.op, ast.Pow
            ) or isinstance(child, ast.Call) and _callee(child) in {
                "GaussianRational", "pow"
            }:
                found.append(f"{name}: {ast.unparse(child)}")
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return found


def test_degeneracy_steps_the_twist_on_integers():
    # the routes step t on its cleared numerators and make each pole in
    # exactkernel; the one power left is the Delta report's (1/t)^o
    found = _scalar_steps((PACKAGE / "degeneracy.py").read_text())
    assert found == ["delta_criterion: t_inv ** roots[-1][1]"]


def test_scalar_step_scan_catches_each_form():
    planted = (
        "x = t ** 2\n"
        "def a(t, g):\n    return t ** g\n"
        "def b(t):\n    t **= 3\n    return t\n"
        "class C:\n    def c(self, t, o):\n        return pow(t, -o)\n"
        "def d(c):\n    def e():\n        return GaussianRational(c)\n    return e\n"
        "def f(ek, c):\n    return [ek.GaussianRational(c, 1) for _ in c]\n"
        "def g(t, T):\n    return t * T, '**', GaussianRational, t.pow\n"
    )
    assert _scalar_steps(planted) == [
        "<module>: t ** 2",
        "a: t ** g",
        "b: t **= 3",
        "c: pow(t, -o)",
        "e: GaussianRational(c)",
        "f: ek.GaussianRational(c, 1)",
    ]


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


# what turns numerators into scalars
SCALAR_MAKERS = {"_from_numerators", "_to_scalars"}


def _series_of_made_scalars(source: str) -> list[str]:
    """Each ``TruncatedSeries(...)`` call, in any function, whose arguments
    name a ``SCALAR_MAKERS`` function or a name assigned from an expression
    that names one: a series built from scalars made of numerators."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        made = set(SCALAR_MAKERS)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and made & _identifiers(node.value):
                made |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and _callee(node) == "TruncatedSeries":
                args = node.args + [k.value for k in node.keywords]
                if any(made & _identifiers(a) for a in args):
                    found.add(f"{fn.name}: {ast.unparse(node)}")
    return sorted(found)


def _slots(source: str, cls: str) -> tuple:
    """The ``__slots__`` tuple of class ``cls``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and "__slots__" in _identifiers(stmt):
                    return ast.literal_eval(stmt.value)
    return ()


def test_no_producer_builds_a_series_from_its_own_numerators():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if hits := _series_of_made_scalars(path.read_text()):
            found[path.stem] = hits
    assert found == {}


def test_truncated_series_makes_each_form_in_one_place():
    kernel = (PACKAGE / "exactkernel.py").read_text()
    # one representation: integers and the Massey pass, no scalar slot
    assert _slots(kernel, "TruncatedSeries") == ("_re", "_im", "_den", "_massey")
    # a scalar is made on read, in one place each for one and for a run
    assert _methods_naming(kernel, "TruncatedSeries", SCALAR_MAKERS) == [
        "__getitem__", "__iter__"
    ]
    # scalars are cleared once, by the scalar constructor
    numerators = {"_clear_denominators"}
    assert _methods_naming(kernel, "TruncatedSeries", numerators) == ["__init__"]
    # and numerators are reduced by the one reducing constructor
    assert _methods_naming(kernel, "TruncatedSeries", {"gcd"}) == ["_of_numerators"]


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
    assert _methods_naming(methods, "TruncatedSeries", SCALAR_MAKERS) == [
        "coeffs", "order"
    ]
    assert _slots(methods, "TruncatedSeries") == ()
    slotted = "class TruncatedSeries:\n    __slots__ = ('_c',)\n"
    assert _slots(slotted, "TruncatedSeries") == ("_c",)
    producers = (
        "def a(x, y, d, r):\n"
        "    return TruncatedSeries(_to_scalars(x, y, d, r))\n"
        "def b(x, y, d):\n"
        "    return TruncatedSeries([_from_numerators(p, q, d) for p, q in x])\n"
        "def c(x, y, d, r):\n"
        "    mu = _to_scalars(x, y, d, r)\n"
        "    return TruncatedSeries(mu)\n"
        "class D:\n"
        "    def d(self, x, y, e):\n"
        "        return kernel.TruncatedSeries(coeffs=map(_from_numerators, x, y, e))\n"
        "def e(x, y, d):\n"
        "    v = _from_numerators(1, 0, 1)\n"
        "    return TruncatedSeries._of_numerators(x, y, d), TruncatedSeries([1, 2])\n"
        "def f(q):\n"
        "    return TruncatedSeries(q.coeffs)\n"
    )
    assert [hit.split(":")[0] for hit in _series_of_made_scalars(producers)] == [
        "a", "b", "c", "d"
    ]
