"""Requests at the CLI's size bounds are answered.

Each request here sits at one of the bounds ``cli`` enforces (deg P at
MAX_DEGREE, or a coset span of MAX_COSET_SPAN), and must end with exit
code 0 or 2, one JSON document on stdout and nothing on stderr.  No request
is timed; ``--durations`` shows how long each one took.
"""

import json

from kleintrace.cli import MAX_COSET_SPAN, MAX_DEGREE, main


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
