"""Floats stay in ``lerch``: the exact modules never touch floating point.

In the exact modules there is no float or imaginary literal, ``float()``
and ``complex()`` are called only in ``GaussianRational.to_complex`` (the
one exit to the float module), and only integer functions come from
``math``.
"""

import ast
from pathlib import Path

import pytest

import kleintrace

PACKAGE = Path(kleintrace.__file__).parent
EXACT = (
    "exactkernel", "linalg", "tracespace", "pade", "degeneracy", "algebra",
    "findim", "catalog",
)
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}
FLOAT_EXIT = "GaussianRational.to_complex"


class _Scan(ast.NodeVisitor):
    def __init__(self):
        self.scope = []
        self.math_names = set()  # names bound to the math module
        self.found = []

    def _report(self, node, what):
        self.found.append(f"line {node.lineno}: {what}")

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Constant(self, node):
        if isinstance(node.value, (float, complex)):
            self._report(node, f"float literal {node.value!r}")

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("float", "complex"):
            if ".".join(self.scope) != FLOAT_EXIT:
                self._report(node, f"{func.id}() outside {FLOAT_EXIT}")
        self.generic_visit(node)

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name == "math":
                self.math_names.add(alias.asname or alias.name)
            elif alias.name == "cmath":
                self._report(node, "import cmath")

    def visit_ImportFrom(self, node):
        if node.module == "cmath":
            self._report(node, "import from cmath")
        elif node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    self._report(node, f"math.{alias.name}")

    def visit_Attribute(self, node):
        value = node.value
        if isinstance(value, ast.Name) and value.id in self.math_names:
            if node.attr not in INTEGER_MATH:
                self._report(node, f"math.{node.attr}")
        self.generic_visit(node)


def _scan(source: str) -> list[str]:
    scan = _Scan()
    scan.visit(ast.parse(source))
    return scan.found


@pytest.mark.parametrize("module", EXACT)
def test_exact_module_has_no_floats(module):
    assert _scan((PACKAGE / f"{module}.py").read_text()) == []


def test_scan_catches_each_kind_of_float():
    bad = (
        "x = 0.5",
        "x = 2j",
        "def f(a):\n    return float(a)",
        "class GaussianRational:\n    def other(self):\n        return complex(1, 2)",
        "import math\ny = math.sqrt(2)",
        "import math as m\ny = m.log(2)",
        "from math import exp",
        "import cmath",
    )
    for source in bad:
        assert _scan(source), source
    ok = (
        "class GaussianRational:\n    def to_complex(self):\n"
        "        return complex(float(1), 0)\n"
        "from math import comb, lcm\nimport math\nk = math.gcd(4, 6)"
    )
    assert _scan(ok) == []
