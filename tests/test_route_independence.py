"""The Pade route to degeneracy takes nothing from ``linalg``.

The tri-oracle compares three independent verdicts: the delta criterion,
the rref rank of ``tracespace.hankel_rank`` and the Pade denominator-degree
drop.  If ``pade`` used ``linalg``, one fault there could move two verdicts
together and the comparison would no longer see it.
"""

import ast
from pathlib import Path

import kleintrace

PACKAGE = Path(kleintrace.__file__).parent


def _linalg_imports(source: str) -> list[str]:
    """Every import that reaches ``kleintrace.linalg``, relative or absolute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "kleintrace" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
            if any(alias.name == "linalg" for alias in node.names):
                modules.append("kleintrace.linalg")
        else:
            continue
        if any(m == "kleintrace.linalg" or m.startswith("kleintrace.linalg.") for m in modules):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_pade_imports_nothing_from_linalg():
    assert _linalg_imports((PACKAGE / "pade.py").read_text()) == []


def test_scan_catches_each_form_of_linalg_import():
    bad = (
        "from . import linalg",
        "from .linalg import kernel_basis",
        "from .tracespace import linalg",
        "import kleintrace.linalg",
        "import kleintrace.linalg as la",
        "from kleintrace import linalg",
        "from kleintrace.linalg import rank",
    )
    for source in bad:
        assert _linalg_imports(source), source
    ok = "from .exactkernel import DensePolynomial\nfrom .tracespace import TraceSpec\nimport math"
    assert _linalg_imports(ok) == []
