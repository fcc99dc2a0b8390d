"""The Pade and delta routes to degeneracy take nothing from ``linalg``.

The tri-oracle compares three independent verdicts: the delta criterion,
the rank of ``tracespace.hankel_rank`` and the Pade denominator-degree
drop.  If ``pade`` used ``linalg``, or ``degeneracy`` used it for the
criterion or the degenerate basis the tri-oracle also checks, one fault
there could move two verdicts together and the comparison would no longer
see it.  ``linalg`` is one Bareiss rank, and its only users are the two
rank questions: ``tracespace.hankel_rank`` and the elimination count of
the degenerate dimension in ``selftest``.
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


def _functions_naming_linalg(source: str) -> list[str]:
    """The functions whose bodies name ``linalg``, nested ones included."""
    return sorted(
        {
            fn.name
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id == "linalg"
        }
    )


def test_degeneracy_imports_nothing_from_linalg():
    assert _linalg_imports((PACKAGE / "degeneracy.py").read_text()) == []


def test_only_the_two_rank_questions_use_linalg():
    users = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        imports = [i.split(": ", 1)[1] for i in _linalg_imports(source)]
        if path.stem != "linalg" and imports:
            # the module import alone, so no linalg function has a bare name
            assert imports == ["from . import linalg"], path.stem
            users[path.stem] = _functions_naming_linalg(source)
    assert users == {"selftest": ["_kernel_dim"], "tracespace": ["hankel_rank"]}


def test_function_scan_catches_each_use_of_linalg():
    source = (
        "def a():\n    return linalg.rank([])\n"
        "class B:\n    def b(self):\n        f = linalg\n"
        "def c():\n    def d():\n        return linalg.numerator_rows([])\n"
        "def e(linalg_rows):\n    return linalg_rows\n"
    )
    assert _functions_naming_linalg(source) == ["a", "b", "c", "d"]
