"""Requests at the CLI's size bounds are answered.

Each request here sits at one of the bounds ``cli`` enforces (deg P at
MAX_DEGREE, here), and must end with exit code 0 or 2, one JSON document
on stdout and nothing on stderr.  No request is timed; ``--durations``
shows how long each one took.
"""

import json

from kleintrace.cli import MAX_DEGREE, main


def test_degenerate_basis_at_the_degree_bound(capsys):
    # x^300(x-1)^300: two roots of multiplicity 300 in one coset, so 300
    # basis vectors, the k-th reading P/(x - a)^k at both roots
    m = MAX_DEGREE // 2
    code = main(["degenerate-basis", f"--P=x^{m}(x-1)^{m}", "--t=2"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert len(json.loads(out)["basis"]) == m
