"""The oracles stay independent of the code they check.

``oracles`` may take only the scalar, polynomial and series types and the
``GR_*`` constants from ``kleintrace``; importing a function would let a
fast path check itself.  Nor may it call the methods whose bodies are the
fast paths: the expansion of P, the Taylor shift, the recombination of
principal parts and the trace's own expansion of Q/P.
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
}


def _methods_called(source: str) -> set[str]:
    """The attribute names that ``source`` calls, as in ``P.expand()``."""
    return {
        node.func.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }


def test_oracles_import_only_types_and_constants():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
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
    source = (Path(__file__).parent / "oracles.py").read_text()
    assert not FORBIDDEN_METHODS & _methods_called(source)


def test_method_scan_catches_each_name():
    snippets = {
        "expand": "def f(P):\n    return P.expand()\n",
        "shift": "def f(p, h):\n    return p.shift(h)\n",
        "quotient_poly": "def f(P, a):\n    return P.quotient_poly(a, 1)\n",
        "to_rational": "def f(parts):\n    R, S = parts.to_rational()\n    return R\n",
        "difference_parts": (
            "class A:\n    def f(self, spec):\n        return spec.difference_parts()\n"
        ),
    }
    assert set(snippets) == FORBIDDEN_METHODS
    for name, snippet in snippets.items():
        assert FORBIDDEN_METHODS & _methods_called(snippet) == {name}, name
