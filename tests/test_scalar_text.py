"""Scalars cross the text edge as integers.

``GaussianRational.from_string`` reads plain digit parts with ``int()`` and
every other spelling with ``Fraction(str)``, as before; printing makes the
text from reduced integer parts, and a series or polynomial held as
numerators prints from them with no scalar made.  Both are checked against
the Fraction-based reader and printer kept in ``oracles``, and the package
calls ``Fraction`` on a string only inside the one reader.  Past the text
edge a scalar's Fraction parts stay in ``exactkernel`` too: no other
module reads a ``numerator`` or ``denominator``, or a ``re`` or ``im``
other than the integer lists of ``_CommonDenominator`` and ``_MasseyPass``.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kleintrace
from kleintrace import (
    DensePolynomial,
    GaussianRational,
    PrincipalParts,
    TraceSpec,
    TruncatedSeries,
    parse_factored,
    q_from_principal_parts,
    solve_moments,
)
from kleintrace import exactkernel
from kleintrace.exactkernel import _from_numerators, _numerator_text, _root_product

import oracles

from conftest import fp, gr, poly

PACKAGE = Path(kleintrace.__file__).parent
READER = "_read_part"

# -------------------------------------------------- Fraction reads no text


class _FractionScan(ast.NodeVisitor):
    """One-argument ``Fraction`` calls that may be handed a string.

    ``Fraction(a, b)`` refuses strings, so only a call with one argument can
    parse text.  Outside the reader that argument must be a number literal,
    an ``int(...)`` call, or a name that an earlier ``if isinstance(name,
    str):`` of the same function sent to the reader or out of the function.
    """

    def __init__(self, reader):
        self.reader = reader
        self.fraction_names = set()  # names bound to fractions.Fraction
        self.module_names = set()  # names bound to the fractions module
        self.functions = []  # (name, {cleared name: line of its check})
        self.found = []

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name == "fractions":
                self.module_names.add(alias.asname or alias.name)

    def visit_ImportFrom(self, node):
        if node.module == "fractions":
            for alias in node.names:
                if alias.name == "Fraction":
                    self.fraction_names.add(alias.asname or alias.name)

    def visit_FunctionDef(self, node):
        self.functions.append((node.name, _cleared(node)))
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _is_fraction(self, func) -> bool:
        if isinstance(func, ast.Name):
            return func.id in self.fraction_names
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "Fraction"
            and isinstance(func.value, ast.Name)
            and func.value.id in self.module_names
        )

    def visit_Call(self, node):
        if self._is_fraction(node.func):
            args = node.args + [k.value for k in node.keywords]
            if len(args) == 1 and not self._safe(args[0], node.lineno):
                self.found.append(f"line {node.lineno}: {ast.unparse(node)}")
        self.generic_visit(node)

    def _safe(self, arg, line) -> bool:
        if self.functions and self.functions[-1][0] == self.reader:
            return True
        if isinstance(arg, ast.UnaryOp):
            arg = arg.operand
        if isinstance(arg, ast.Constant):
            return isinstance(arg.value, int)
        if isinstance(arg, ast.Call):
            return isinstance(arg.func, ast.Name) and arg.func.id == "int"
        if isinstance(arg, ast.Name) and self.functions:
            checked = self.functions[-1][1].get(arg.id)
            return checked is not None and checked < line
        return False


def _cleared(func) -> dict:
    """{name: line} for each top-level ``if isinstance(name, str):`` of func
    whose body reassigns name from the reader, or returns or raises."""
    out = {}
    for stmt in func.body:
        test = stmt.test if isinstance(stmt, ast.If) else None
        if not (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance"
            and len(test.args) == 2
            and isinstance(test.args[0], ast.Name)
            and isinstance(test.args[1], ast.Name)
            and test.args[1].id == "str"
        ):
            continue
        name, last = test.args[0].id, stmt.body[-1]
        read = (
            isinstance(last, ast.Assign)
            and [ast.unparse(t) for t in last.targets] == [name]
            and isinstance(last.value, ast.Call)
            and ast.unparse(last.value.func) == READER
        )
        if read or isinstance(last, (ast.Return, ast.Raise)):
            out[name] = stmt.lineno
    return out


def _scan(source: str, reader=READER) -> list[str]:
    scan = _FractionScan(reader)
    scan.visit(ast.parse(source))
    return scan.found


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_only_the_reader_hands_fraction_a_string(module):
    assert _scan((PACKAGE / f"{module}.py").read_text()) == []


def test_the_reader_is_the_one_place_fraction_reads_text():
    found = _scan((PACKAGE / "exactkernel.py").read_text(), reader=None)
    assert [line.split(": ", 1)[1] for line in found] == ["Fraction(part)"]


def test_fraction_scan_catches_each_string_path():
    head = "from fractions import Fraction\n"
    bad = (
        head + "def f(s):\n    return Fraction(s)",
        head + "x = Fraction('1/2')",
        head + "def f(s):\n    return Fraction(numerator=s)",
        head + "def f(s):\n    return Fraction(s.strip())",
        "import fractions\ndef f(s):\n    return fractions.Fraction(s)",
        "import fractions as fr\ndef f(s):\n    return fr.Fraction(s)",
        "from fractions import Fraction as F\ndef f(s):\n    return F(s)",
        # a check that does not send the string away, or comes too late
        head + "def f(s):\n    if isinstance(s, str):\n        pass\n    return Fraction(s)",
        head + "def f(s):\n    if isinstance(s, str):\n        s = s.strip()\n"
        "    return Fraction(s)",
        head + "def f(s):\n    y = Fraction(s)\n    if isinstance(s, str):\n"
        "        raise TypeError\n    return y",
        # a check in one function clears nothing in another
        head + "def f(s):\n    if isinstance(s, str):\n        return 0\n"
        "    def g(s):\n        return Fraction(s)\n    return g(s)",
    )
    for source in bad:
        assert _scan(source), source
    ok = (
        head + "def _read_part(part):\n    return Fraction(part)\n"
        "def f(s, t):\n    if isinstance(s, str):\n        s = _read_part(s)\n"
        "    if isinstance(t, str):\n        raise TypeError\n"
        "    return Fraction(s) + Fraction(t) + Fraction(int(s), 3)\n"
        "ZERO, ONE = Fraction(0), Fraction(-1)\n"
        "def g(a, b):\n    return Fraction(a, b)\n"
    )
    assert _scan(ok) == []


# ------------------------------------------------ the reader, differential


def _outcome(read, text):
    """What reading text gives: the two parts and their types, or the
    exception type and message."""
    try:
        value = read(text)
    except Exception as exc:  # every failure is compared, whatever its type
        return type(exc), str(exc)
    return type(value), value.re, value.im, type(value.re), type(value.im)


_SIGN = st.sampled_from(["", "+", "-"])
_DIGITS = st.text("0123456789", min_size=1, max_size=8)
_PLAIN = st.builds(
    lambda s, n, d: s + n + ("" if d is None else "/" + d), _SIGN, _DIGITS, st.none() | _DIGITS
)
_ODD = st.sampled_from([
    "0.5", "-1.25", ".5", "1.", "1_000", "1_0/3", "1__0", "١٢", "²",
    "１/2", "1/0", "0/0", "-3/00", "1/-2", "+-1", "--1", "/3", "3/", "1/2/3",
    "1e5", "1E-2", "nan", "inf", "0x10", "1 /2", "1\t/2", "\t3", "", "+", "-", "/",
])
_BIG = st.builds(
    lambda s, n, tail: s + "7" * n + tail,
    _SIGN,
    st.sampled_from([4299, 4300, 4301, 5000]),
    st.sampled_from(["", "/3", "/" + "9" * 4301, "/0"]),
)
_PART = _PLAIN | _ODD | _BIG
_SCALAR_TEXT = (
    _PART
    | st.builds(lambda p, unit: p + unit, _PART, st.sampled_from(["i", "I"]))
    | st.builds(
        lambda re, sign, im, unit: f"{re}{sign}{im}{unit}",
        _PART, _SIGN, _PART | st.just(""), st.sampled_from(["i", "I", ""]),
    )
    | st.sampled_from(["i", "-i", "+i", "I", "2+i", "2-i", "1/2-I", "  -3/4 + 5/6 i "])
    | st.builds(lambda pad, body: pad + body + pad, st.sampled_from([" ", "\t", "\n"]), _PLAIN)
    | st.text(max_size=12)
)


_EDGES = (
    "7" * 4301, "1/" + "9" * 4301, "7" * 4301 + "i", "2+" + "7" * 5000 + "i",
    "1/0", "3-1/0i", "0.5", "-1.5+2.25i", "1_000", "١/2", "abc", "1/2/3",
    "1e3", "", "i", "-I",
)


def _with_edges(test):
    for text in _EDGES:
        test = example(text=text)(test)
    return test


@_with_edges
@settings(max_examples=400)
@given(text=_SCALAR_TEXT)
def test_reader_matches_the_fraction_reader(text):
    assert _outcome(GaussianRational.from_string, text) == _outcome(oracles.from_string, text)


@_with_edges
@settings(max_examples=300)
@given(text=_SCALAR_TEXT)
def test_factor_root_reads_as_the_negated_scalar(text):
    # the root a of (x - a) is read once, from the negated parts of the
    # text after x, and is accepted or refused as negating that scalar was
    for sign in "+-":
        rest = (sign + text).replace(" ", "")
        if ")" in rest:
            return
        ours = _outcome(lambda r: parse_factored(f"(x{r})").roots[0][0], rest)
        assert ours == _outcome(lambda r: -oracles.from_string(r), rest), rest


def test_public_constructor_reads_strings_as_before():
    for text in ("1/2", "-3", " 1/2 ", "0.25", "1_0", "٣"):
        assert GaussianRational(text, text) == GaussianRational(
            oracles.from_string(text).re, oracles.from_string(text).re
        )
    for text in ("1/0", "x", "1/-2"):
        with pytest.raises((ValueError, ZeroDivisionError)) as ours:
            GaussianRational(text)
        with pytest.raises(type(ours.value)) as ref:
            Fraction(text)
        assert str(ours.value) == str(ref.value)


# ----------------------------------------------- the printer, differential

_INTS = st.integers(-(10**40), 10**40) | st.sampled_from([0, 1, -1, 2, -2])
_DENS = st.integers(1, 10**24) | st.sampled_from([1, 2, 6])


@settings(max_examples=200)
@given(re=_INTS, im=_INTS, den=_DENS)
def test_printing_from_numerators_matches_the_fraction_printer(re, im, den):
    scalar = _from_numerators(re, im, den)
    assert _numerator_text(re, im, den) == str(scalar) == oracles.scalar_text(scalar)


def _poly_text(coeffs) -> str:
    """The polynomial text built term by term from the oracle printer."""
    parts = []
    for i, c in enumerate(coeffs):
        if c:
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            parts.append(f"({oracles.scalar_text(c)})" + ("*" + term if term else ""))
    return " + ".join(parts) or "0"


@settings(max_examples=150)
@given(pairs=st.lists(st.tuples(_INTS, _INTS), max_size=6), den=_DENS)
def test_numerator_forms_print_as_their_scalars(pairs, den):
    re, im = [x for x, _ in pairs], [y for _, y in pairs]
    held = DensePolynomial._of_numerators(list(re), list(im), den)
    scalars = DensePolynomial._of_numerators(list(re), list(im), den).coeffs
    texts = [oracles.scalar_text(c) for c in scalars]
    assert held.to_json() == texts == DensePolynomial(scalars).to_json()
    assert str(held) == _poly_text(scalars) == str(DensePolynomial(scalars))
    assert repr(held) == f"DensePolynomial([{', '.join(texts)}])"
    assert held._coeffs is None  # printing made and kept no scalar
    if pairs:
        series = TruncatedSeries._of_numerators(list(re), list(im), den)
        texts = [oracles.scalar_text(c) for c in series]
        assert series.to_json() == texts == TruncatedSeries(list(series)).to_json()
        assert repr(series) == f"TruncatedSeries([{', '.join(texts)}])"


def test_integer_forms_print_with_no_scalar_made(monkeypatch):
    spec = TraceSpec(fp(0, 1, gr("1/3", 2)), gr(0, 1), poly("1/2", -3, "2/7"))
    series = [solve_moments(spec, 14), spec.moments(9)]
    P = fp((gr("1/2"), 2), (gr(0, -1), 1))
    polys = [
        _root_product(P.roots),
        P.expand(),
        DensePolynomial.x().shift(gr("2/3")),
        q_from_principal_parts(P, PrincipalParts({gr("1/2"): [1, gr(0, 2)]})),
        DensePolynomial._of_numerators([0, 4, 0], [0, -6, 0], 8),
    ]
    assert all(p._coeffs is None for p in polys)

    def refuse(*args):
        raise AssertionError("a scalar was made to print")

    monkeypatch.setattr(exactkernel, "_from_numerators", refuse)
    monkeypatch.setattr(exactkernel, "_of_parts", refuse)
    got = (
        [(s.to_json(), repr(s)) for s in series],
        [(p.to_json(), str(p), repr(p)) for p in polys],
    )
    hashes = [hash(p) for p in polys]
    # the root product and the expansion of P are one polynomial
    assert polys[0] == polys[1] and len(set(polys)) == len(polys) - 1
    monkeypatch.undo()
    assert all(p._coeffs is None for p in polys)
    # a scalar-built equal polynomial hashes alike
    assert hashes == [hash(DensePolynomial(p.coeffs)) for p in polys]
    texts = [[oracles.scalar_text(c) for c in s] for s in series]
    assert got[0] == [(t, f"TruncatedSeries([{', '.join(t)}])") for t in texts]
    texts = [[oracles.scalar_text(c) for c in p.coeffs] for p in polys]
    assert got[1] == [
        (t, _poly_text(p.coeffs), f"DensePolynomial([{', '.join(t)}])")
        for t, p in zip(texts, polys)
    ]
    assert got[1][-1][:2] == (["0/1+0/1i", "1/2-3/4i"], "(1/2-3/4i)*x")


# --------------------------------------- a scalar's parts stay in the kernel

FRACTION_PARTS = {"numerator", "denominator"}
PARTS = {"re", "im"}
# the classes whose re and im are integer lists, not a scalar's Fractions
INTEGER_HOLDERS = {"_CommonDenominator", "_MasseyPass"}


def _names_holder(annotation) -> bool:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return any(h in annotation.value for h in INTEGER_HOLDERS)
    return annotation is not None and any(
        isinstance(n, ast.Name) and n.id in INTEGER_HOLDERS
        for n in ast.walk(annotation)
    )


def _part_reads(source: str) -> list[str]:
    """Each ``.numerator`` or ``.denominator``, and each ``.re`` or ``.im``
    not on an ``INTEGER_HOLDERS`` object: ``self`` in a method of one, a
    parameter annotated as one, or a name that a function, or one it is
    nested in, assigns from a call of one or of a function annotated to
    return one."""
    tree = ast.parse(source)
    makers = INTEGER_HOLDERS | {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _names_holder(fn.returns)
    }
    found = []

    def visit(node, holders: frozenset, cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            held = {a.arg for a in args if _names_holder(a.annotation)}
            if cls in INTEGER_HOLDERS and args:
                held.add(args[0].arg)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                    func = sub.value.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    if name in makers:
                        held |= {t.id for t in sub.targets if isinstance(t, ast.Name)}
            holders, cls = holders | held, None
        elif isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Attribute) and (
            node.attr in FRACTION_PARTS
            or node.attr in PARTS
            and not (isinstance(node.value, ast.Name) and node.value.id in holders)
        ):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, holders, cls)

    visit(tree, frozenset(), None)
    return found


def test_no_module_but_the_kernel_reads_a_scalars_parts():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "exactkernel":
            if hits := _part_reads(path.read_text()):
                found[path.stem] = hits
    assert found == {}


def test_part_scan_catches_each_form():
    planted = (
        "x = t.re\n"  # 1: module level
        "class _CommonDenominator:\n"
        "    def __init__(self, re):\n"
        "        self.re = re\n"  # held: self of a holder
        "    def scale(self, t):\n"
        "        return [x * t.im for x in self.im]\n"  # 6: t is not held
        "class Other:\n"
        "    def f(self):\n"
        "        return self.re\n"  # 9: self of another class
        "def _pass(m) -> '_MasseyPass':\n"
        "    return m\n"
        "def g(seq: _CommonDenominator, a):\n"
        "    p = _pass(a)\n"
        "    q = kernel._MasseyPass(a)\n"
        "    def inner():\n"
        "        return seq.re, p.im, q.re, a.im\n"  # 16: only a.im
        "    return seq.re.numerator\n"  # 17: the Fraction part
        "def h(seq: '_CommonDenominator', f):\n"
        "    return seq.im, f.denominator, seq.den\n"  # 19: f.denominator
        "def k(seq):\n"
        "    return seq.re\n"  # 21: unannotated
    )
    assert _part_reads(planted) == [
        "1: t.re",
        "6: t.im",
        "9: self.re",
        "16: a.im",
        "17: seq.re.numerator",
        "19: f.denominator",
        "21: seq.re",
    ]
