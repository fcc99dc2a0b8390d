"""The oracles stay independent of the code they check.

``oracles`` may take only the scalar, polynomial and series types and the
``GR_*`` constants from ``kleintrace``; importing a function would let a
fast path check itself.
"""

import ast
from pathlib import Path

ALLOWED = {
    "GaussianRational",
    "DensePolynomial",
    "TruncatedSeries",
    "FactoredPolynomial",
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
