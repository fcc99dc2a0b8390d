"""Requests at the CLI's size bounds are answered.

Each request here sits at one of the bounds ``cli`` enforces (deg P at
MAX_DEGREE, a coset span of MAX_COSET_SPAN, ``moments --n`` at MAX_ORDER,
``pade --n`` and ``profile --nmax`` at MAX_PADE_ORDER, or a ``findim``
module of dimension MAX_MODULE_DIM), and must end with exit code 0, one
JSON document on stdout and nothing on stderr.  No request is timed;
``--durations`` shows how long each one took.
"""

import json

import pytest

from kleintrace.cli import (
    MAX_COSET_SPAN,
    MAX_DEGREE,
    MAX_MODULE_DIM,
    MAX_ORDER,
    MAX_PADE_ORDER,
    main,
)


def _answer(capsys, *argv) -> dict:
    """The one JSON document a request printed with exit code 0 and an
    empty stderr."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), argv
    return json.loads(out)


def test_degenerate_basis_at_the_degree_bound(capsys):
    # x^300(x-1)^300: two roots of multiplicity 300 in one coset, so 300
    # basis vectors, the k-th reading P/(x - a)^k at both roots
    m = MAX_DEGREE // 2
    doc = _answer(capsys, "degenerate-basis", f"--P=x^{m}(x-1)^{m}", "--t=2")
    assert len(doc["basis"]) == m


def test_reconstruct_at_the_coset_span_bound(capsys):
    # x(x-1000) at t = 2: the degenerate trace's transform has a simple pole
    # at each of the 1000 half-integers between the roots, so R sums
    # 1000 quotients S/(x - c) of a degree-1000 S
    span = MAX_COSET_SPAN
    P = f"--P=x(x-{span})"
    (vector,) = _answer(capsys, "degenerate-basis", P, "--t=2")["basis"]
    doc = _answer(capsys, "reconstruct", P, "--t=2", f"--Q={','.join(vector['Q'])}")
    assert len(doc["poles"]) == span
    assert len(doc["S"]) == span + 1


def test_pole_order_decomposition_at_the_degree_bound(capsys):
    # Q = 1 over x^300(x-1)^300 has parts of every order 1..300 at both
    # roots, so 300 components, the k-th over x^k (x-1)^k
    m = MAX_DEGREE // 2
    doc = _answer(
        capsys, "decompose", "--mode=pole-order", f"--P=x^{m}(x-1)^{m}", "--t=2", "--Q=1"
    )
    assert [c["k"] for c in doc["poleOrder"]] == list(range(1, m + 1))


@pytest.mark.parametrize("t", ["2", "1/3+2/7i"])
def test_degeneracy_routes_at_the_coset_span_bound(capsys, t):
    # the degenerate Q of x(x-1000): its one level holds the roots 0 and
    # 1000, so Delta and the two-root split each read its chain at a gap of
    # 1000, t^1000 once
    P = f"--P=x(x-{MAX_COSET_SPAN})"
    (vector,) = _answer(capsys, "degenerate-basis", P, f"--t={t}")["basis"]
    spec = (P, f"--t={t}", f"--Q={','.join(vector['Q'])}")
    assert _answer(capsys, "check-degenerate", *spec)["degenerate"]
    doc = _answer(capsys, "decompose", "--mode=two-root", *spec)
    assert len(doc["twoRoot"]) == 1


def test_p_at_the_degree_bound(capsys):
    # x^300(x-1)^300 under the counting, moment and Pade requests, each at
    # its own order bound where it has one
    m = MAX_DEGREE // 2
    spec = (f"--P=x^{m}(x-1)^{m}", "--t=2")
    assert _answer(capsys, "dims", *spec)["delta"] == m
    moments = _answer(capsys, "moments", *spec, "--Q=1", f"--n={MAX_ORDER}")
    assert len(moments["moments"]) == MAX_ORDER + 1
    pade = _answer(capsys, "pade", *spec, "--Q=1", f"--n={MAX_PADE_ORDER}")
    assert pade["n"] == MAX_PADE_ORDER
    profile = _answer(capsys, "profile", *spec, "--Q=1", f"--nmax={MAX_PADE_ORDER}")
    assert len(profile["profile"]) == MAX_PADE_ORDER


def test_findim_at_the_module_dimension_bound(capsys):
    # a string module of length 64 on x(x-64), and one Jordan block of size
    # 64 on (x+1/2)^64(x-1/2)^64
    top = MAX_MODULE_DIM
    string = _answer(
        capsys, "findim", "--kind=string", f"--P=x(x-{top})", "--t=2", "--a=0",
        "--lambda=1", f"--j={top}",
    )
    jordan = _answer(
        capsys, "findim", "--kind=jordan", f"--P=(x+1/2)^{top}(x-1/2)^{top}",
        "--t=2", "--a=0", "--C=1", "--blocks=1", f"--k={top}",
    )
    assert string["dim"] == jordan["dim"] == top
