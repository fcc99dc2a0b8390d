"""Command-line front end: schemas, determinism, exit codes."""

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kleintrace import GaussianRational, __version__, cli, degeneracy, exactkernel
from kleintrace.cli import (
    MAX_COSET_SPAN,
    MAX_DEGREE,
    MAX_MODULE_DIM,
    MAX_ORDER,
    MAX_PADE_ORDER,
    MAX_SAMPLE_COORDINATE,
    MAX_SAMPLES,
    main,
)
from kleintrace.findim import ModuleRep
from kleintrace.selftest import CHECKS, CheckFailed


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dims_worked_example(capsys):
    code, out = run_cli(capsys, "dims", "--P", "x*(x-1)", "--t", "2/1")
    assert code == 0
    assert json.loads(out) == {"dimC": 2, "dimD": 1, "delta": 1}


def test_moments_worked_example(capsys):
    code, out = run_cli(
        capsys, "moments", "--P", "x", "--t", "2/1", "--Q", "1", "--n", "1"
    )
    assert code == 0
    assert json.loads(out) == {"moments": ["-1/1+0/1i", "3/2+0/1i"]}


def test_check_degenerate_and_reconstruct(capsys):
    code, out = run_cli(
        capsys,
        "check-degenerate", "--P", "x(x-1)", "--t", "2", "--Q=-1,-1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["degenerate"] is True
    assert report["deltaTotal"] == 1
    assert report["deltas"] == {"0/1/0/1:1": "0/1+0/1i"}

    code, out = run_cli(
        capsys, "reconstruct", "--P", "x(x-1)", "--t", "2", "--Q=-1,-1"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["S"] == ["-1/2+0/1i", "1/1+0/1i"]
    assert rec["R"] == ["1/1+0/1i"]
    assert rec["radicalGenerator"] == rec["S"]


def test_reconstruct_nondegenerate_is_validation_error(capsys):
    code, out = run_cli(
        capsys, "reconstruct", "--P", "x(x-1)", "--t", "2", "--Q", "1"
    )
    assert code == 2
    assert "error" in json.loads(out)


def test_degenerate_basis_and_decompose(capsys):
    code, out = run_cli(capsys, "degenerate-basis", "--P", "x(x-1)(x-2)", "--t", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"] == 2
    assert len(doc["basis"]) == 2

    code, out = run_cli(
        capsys, "decompose", "--P", "x(x-1)", "--t", "2", "--Q=-1,-1"
    )
    assert code == 0
    doc = json.loads(out)
    assert [c["k"] for c in doc["poleOrder"]] == [1]
    assert len(doc["twoRoot"]) == 1

    # nondegenerate input: pole-order still fine, two-root reported null
    code, out = run_cli(
        capsys, "decompose", "--P", "x(x-1)", "--t", "2", "--Q", "1"
    )
    assert code == 0
    assert json.loads(out)["twoRoot"] is None
    code, out = run_cli(
        capsys,
        "decompose", "--P", "x(x-1)", "--t", "2", "--Q", "1",
        "--mode", "two-root",
    )
    assert code == 2


def test_pade_and_profile(capsys):
    code, out = run_cli(
        capsys, "pade", "--P", "x(x-1)", "--t", "2", "--Q=-1,-1", "--n", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["S"] == ["-1/2+0/1i", "1/1+0/1i"]
    assert doc["R"] == ["1/1+0/1i"]

    code, out = run_cli(
        capsys, "profile", "--P", "x(x-1)", "--t", "2", "--Q=-1,-1",
        "--nmax", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["profile"][0] == {"n": 1, "degS": 1, "nDegenerate": True}


def test_findim_subcommand(capsys):
    code, out = run_cli(
        capsys,
        "findim", "--kind", "string", "--P", "x(x-2)", "--t", "3",
        "--a", "0", "--j", "2", "--lambda", "1", "--order", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert doc["moments"] == ["4/1+0/1i", "5/1+0/1i", "7/1+0/1i"]
    assert len(doc["Z"]) == 4  # row-major dim x dim

    code, out = run_cli(
        capsys,
        "findim", "--kind", "jordan", "--P", "(x+1/2)^2(x-3/2)^2", "--t", "2",
        "--a", "0", "--blocks", "2", "--k", "2", "--C", "1", "--order", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 4
    assert doc["moments"] == ["0/1+0/1i", "3/1+0/1i", "4/1+0/1i", "6/1+0/1i"]


def test_lerch_check_subcommand(capsys):
    code, out = run_cli(
        capsys, "lerch-check", "--P", "x(x-1)", "--t", "1/2", "--Q", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["maxResidual"] < 1e-9
    assert len(doc["samples"]) == 20


# sha256 of the selftest stdout: every refactor must print the same bytes
SELFTEST_DIGESTS = {
    7: "dcbfa0cbabf9887b797fd4a9d668ae3ae5b5df855778bf5f43ec175bc1ed9747",
    11: "7d0259ddbb341be395251551260e683f4094631c722b9079dca14e309d35a7dd",
}


def test_selftest_runs_clean(capsys):
    for seed, digest in SELFTEST_DIGESTS.items():
        code, out = run_cli(capsys, "selftest", "--seed", str(seed))
        assert code == 0
        doc = json.loads(out)
        assert doc["failed"] == 0
        assert doc["passed"] == len(doc["checks"])
        assert doc["seed"] == seed
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed


def test_selftest_passes_where_a_denominator_degree_drops(capsys):
    # seed 38 draws a trace whose S_2 has degree 1; the functional check
    # bounds its residual order by n + deg S_n + 1, not 2n + 1
    code, out = run_cli(capsys, "selftest", "--seed", "38")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_selftest_failure_exits_1_with_a_report(capsys, monkeypatch):
    def fails(rng, **size):
        raise CheckFailed("made to fail")

    def crashes(rng, **size):
        raise ZeroDivisionError("made to crash")

    for check in CHECKS.values():
        monkeypatch.setattr(check, "fn", lambda rng, **size: "stubbed")
    monkeypatch.setattr(CHECKS["dimensions"], "fn", fails)
    monkeypatch.setattr(CHECKS["lerch"], "fn", crashes)
    code = main(["selftest", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["failed"] == 2
    assert doc["passed"] == len(CHECKS) - 2
    details = {c["name"]: (c["passed"], c["detail"]) for c in doc["checks"]}
    assert details["dimensions"] == (False, "made to fail")
    assert details["lerch"] == (False, "ZeroDivisionError: made to crash")


def test_idempotent_output(capsys):
    _, first = run_cli(capsys, "dims", "--P", "x^2(x-1)^2", "--t", "i")
    _, second = run_cli(capsys, "dims", "--P", "x^2(x-1)^2", "--t", "i")
    assert first == second


def test_json_request_file(tmp_path, capsys):
    request = {
        "subcommand": "moments",
        "params": {
            "P": [["0/1+0/1i", 1]],
            "t": "2/1+0/1i",
            "Q": ["1/1+0/1i"],
            "n": 1,
        },
    }
    path = tmp_path / "req.json"
    path.write_text(json.dumps(request))
    code, out = run_cli(capsys, "moments", "--json", str(path))
    assert code == 0
    assert json.loads(out) == {"moments": ["-1/1+0/1i", "3/2+0/1i"]}


def test_validation_errors_exit_2(capsys, monkeypatch):
    # malformed polynomial
    code, out = run_cli(capsys, "dims", "--P", "x+1", "--t", "2")
    assert code == 2
    assert "error" in json.loads(out)
    # t = 0 rejected
    code, out = run_cli(capsys, "dims", "--P", "x", "--t", "0")
    assert code == 2
    # missing parameter
    code, out = run_cli(capsys, "moments", "--P", "x", "--t", "2")
    assert code == 2
    # degree bound violated
    code, out = run_cli(
        capsys, "moments", "--P", "x", "--t", "1", "--Q", "1", "--n", "1"
    )
    assert code == 2
    # zero denominators, real and imaginary
    for q in ("1/0", "1/0i"):
        code, out = run_cli(
            capsys, "moments", "--P", "x(x-1)", "--t", "2", f"--Q={q}", "--n", "3"
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValueError"
    # t = 0 in a module
    code, out = run_cli(
        capsys, "findim", "--P=x(x-1)", "--t=0", "--kind=string", "--a=0",
        "--j=1", "--lambda=1",
    )
    assert code == 2
    assert "must be nonzero" in json.loads(out)["error"]["message"]
    # floats and booleans in JSON requests are not exact numbers, nor
    # integer counts
    module = {"kind": "jordan", "a": 0, "blocks": 1, "k": 1, "C": 1}
    for subcommand, params in (
        ("moments", {"Q": [1.5, 2]}),
        ("moments", {"Q": 1.5}),
        ("moments", {"Q": "[1, 2.5]"}),
        ("moments", {"P": [[0.5, 1], [1, 1]]}),
        ("moments", {"P": [[0, 1.0]], "Q": [1]}),
        ("moments", {"n": 1.5}),
        ("moments", {"n": True}),
        ("moments", {"n": "1.5"}),
        ("moments", {"t": True}),
        ("moments", {"Q": [True]}),
        ("moments", {"P": [[0, 1], [1, True]]}),
        ("pade", {"n": 2.0}),
        ("profile", {"nmax": 1.5}),
        ("selftest", {"seed": 7.5}),
        ("findim", {**module, "order": 2.5}),
        ("findim", {**module, "blocks": True}),
        ("findim", {**module, "k": [1]}),
        ("findim", {"kind": "string", "a": 0, "j": 1.5, "lambda": 1}),
    ):
        base = {"P": "x(x-1)", "t": "2", "Q": [1, 2], "n": 3, "nmax": 2}
        request = {"subcommand": subcommand, "params": {**base, **params}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
        code, out = run_cli(capsys, "moments", "--json=-")
        assert code == 2, (subcommand, params)
        assert json.loads(out)["error"]["type"] == "UsageError"
    # a request or its params that is not a JSON object, or a subcommand
    # that is not a string
    for request in ([1, 2], {"subcommand": "moments", "params": [1]},
                    {"subcommand": "moments", "params": "x"},
                    {"subcommand": [1], "params": {}}, {"subcommand": {}}):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
        code, out = run_cli(capsys, "moments", "--json=-")
        assert code == 2, request
        assert json.loads(out)["error"]["type"] == "UsageError"
    # the same bad counts and kinds as flags reach the handlers; counts
    # above their bounds are bad input too
    spec = ("--P=x(x-1)", "--t=2", "--Q=1,2")
    string = ("findim", "--P=x(x-1)", "--t=2", "--a=0", "--j=1", "--lambda=1")
    for argv in (
        ("moments", *spec, "--n=1.5"),
        ("profile", *spec, "--nmax=x"),
        (*string, "--kind=string", "--order=2.5"),
        ("selftest", "--seed=x"),
        (*string, "--kind=foo"),
        ("moments", *spec, f"--n={MAX_ORDER + 1}"),
        (*string, "--kind=string", f"--order={MAX_ORDER + 1}"),
        ("pade", *spec, f"--n={MAX_PADE_ORDER + 1}"),
        ("profile", *spec, f"--nmax={MAX_PADE_ORDER + 1}"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"]["type"] == "UsageError"
    code, out = run_cli(capsys, *string, "--kind=string", f"--order={MAX_ORDER}")
    assert code == 0
    assert len(json.loads(out)["moments"]) == MAX_ORDER + 1
    # counts below their bounds name the flag and the bound
    jordan = ("findim", "--P=x(x-1)", "--t=2", "--kind=jordan", "--a=1/2", "--C=1")
    for flag, least, argv in (
        ("n", 0, ("moments", *spec, "--n=-1")),
        ("n", 0, ("pade", *spec, "--n=-1")),
        ("nmax", 1, ("profile", *spec, "--nmax=0")),
        ("order", 0, (*string, "--kind=string", "--order=-1")),
        ("j", 1, (*string[:-2], "--j=0", "--lambda=1", "--kind=string")),
        ("blocks", 1, (*jordan, "--blocks=0", "--k=1")),
        ("k", 1, (*jordan, "--blocks=1", "--k=0")),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        error = json.loads(out)["error"]
        assert error["type"] == "UsageError"
        assert error["message"].startswith(f"{flag} must be at least {least}")
    for argv in (("moments", *spec, "--n=0"), ("pade", *spec, "--n=0")):
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
    # lerch-check samples: finite non-boolean numbers in [re, im] pairs, each
    # of size at most MAX_SAMPLE_COORDINATE (the lift loop runs |Re x| times)
    lerch = {"P": "x(x-1)", "t": "1/3", "Q": [1, 2]}
    for samples in (
        [[True, 0.3]],
        [[True, "nan"]],
        [[2.5, float("nan")]],
        [[float("inf"), 0.3]],
        [[1e308, 0]],
        [[10**400, 0]],
        [[2.5, -(MAX_SAMPLE_COORDINATE + 1)]],
        [["2.5", 0.3]],
        [[2.5, None]],
        [[2.5]],
        [[2.5, 0.3, 1]],
        [2.5, 0.3],
        "[[2.5, 0.3], [true, 0]]",
        {"re": 2.5, "im": 0.3},
    ):
        request = {"subcommand": "lerch-check", "params": {**lerch, "samples": samples}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
        code, out = run_cli(capsys, "lerch-check", "--json=-")
        assert code == 2, samples
        assert json.loads(out)["error"]["type"] == "UsageError"
    for samples in ([[2.5, 0.3]], [[MAX_SAMPLE_COORDINATE, 0.3], [-3, 1]]):
        code, out = run_cli(
            capsys, "lerch-check", "--P=x(x-1)", "--t=1/3", "--Q=1,2",
            f"--samples={json.dumps(samples)}",
        )
        assert code == 0, samples
        assert [s["x"] for s in json.loads(out)["samples"]] == samples


def test_lerch_check_bounds_the_number_of_samples(capsys):
    # MAX_SAMPLES samples are answered and one more is refused, each within
    # a second: the length is checked before any sample is read
    for n, code in ((MAX_SAMPLES, 0), (MAX_SAMPLES + 1, 2)):
        samples = [[2 + k / n, 0.3] for k in range(n)]
        start = time.perf_counter()
        got, out = run_cli(
            capsys, "lerch-check", "--P=x(x-1)", "--t=-1", "--Q=1",
            f"--samples={json.dumps(samples)}",
        )
        assert time.perf_counter() - start < 1.0, n
        assert got == code, n
        doc = json.loads(out)
        if code == 0:
            assert len(doc["samples"]) == n
        else:
            message = f"--samples holds {n} samples; it may hold at most {MAX_SAMPLES}"
            assert doc["error"] == {"type": "UsageError", "message": message}


def test_lerch_check_refuses_scalars_past_double_range(capsys, monkeypatch):
    # each value here exact arithmetic takes, but a double cannot hold:
    # t is refused by the exact |t| <= 1 test, and the rest where they
    # become doubles, as a ValueError naming the value
    big = "1" + "0" * 400
    spec = ("--P=x(x-1)", "--t=1/2", "--Q=1,2")
    payload = {"params": {"P": "x(x-1)", "t": 10**400, "Q": [1, 2]}}
    requests = (
        (["lerch-check", spec[0], f"--t={big}", spec[2]], ""),
        (["lerch-check", spec[0], spec[1], f"--Q={big},2"], ""),
        (["lerch-check", f"--P=x(x-{big}i)", spec[1], spec[2]], ""),
        (["lerch-check", f"--P=x(x-1/{big})", spec[1], spec[2]], ""),
        (["lerch-check", "--json=-"], json.dumps(payload)),
    )
    messages = []
    for argv, stdin in requests:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (2, ""), argv
        (error,) = json.loads(out).values()
        assert error["type"] == "ValueError", argv
        messages.append(error["message"])
    assert messages[0] == messages[-1] == "construction needs |t| <= 1"
    for message in messages[1:-1]:
        assert message.endswith("characters) is out of double range"), message


def test_a_request_clears_the_roots_of_p_once(capsys, monkeypatch):
    # P keeps its roots cleared over their common denominator, and
    # partial_fractions and the Q kernel read them there; the two-root pairs
    # on three roots never repeat P's roots
    roots = [GaussianRational(r) for r in (0, 1, 2)]
    calls = []
    clear = exactkernel._clear_denominators

    def counted(values):
        values = list(values)
        calls.append(values == roots)
        return clear(values)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kleintrace" and vars(module).get(
            "_clear_denominators"
        ) is clear:
            monkeypatch.setattr(module, "_clear_denominators", counted)
    spec = ("--P=x^2(x-1)^2(x-2)", "--t=2", "--Q=1,-1,-3/4,-3/2,5/4")
    for argv in (
        ("check-degenerate", *spec),
        ("decompose", *spec, "--mode=two-root"),
        ("degenerate-basis", *spec[:2]),
    ):
        calls.clear()
        code, out = run_cli(capsys, *argv)
        assert code == 0, out
        assert sum(calls) == 1, argv
    assert len(json.loads(out)["basis"]) == 3


def test_findim_module_dimension_bound(capsys):
    # --j, or --blocks times --k, is the dimension; the bound is accepted
    # and one past it exits 2 naming the flag
    top = MAX_MODULE_DIM
    string = ("findim", "--kind=string", f"--P=x(x-{top})", "--t=2", "--a=0",
              "--lambda=1", "--order=2")
    half = top // 2
    jordan = ("findim", "--kind=jordan", f"--P=(x+1/2)^{half}(x-3/2)^{half}",
              "--t=2", "--a=0", "--C=1", "--order=2")
    for argv in ((*string, f"--j={top}"), (*jordan, "--blocks=2", f"--k={half}")):
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        assert json.loads(out)["dim"] == top
    for prefix, argv in (
        ("j must be at most", (*string, f"--j={top + 1}")),
        ("blocks must be at most", (*jordan, f"--blocks={top + 1}", "--k=1")),
        ("k must be at most", (*jordan, "--blocks=1", f"--k={top + 1}")),
        ("blocks * k", (*jordan, "--blocks=2", f"--k={half + 1}")),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        error = json.loads(out)["error"]
        assert error["type"] == "UsageError"
        assert error["message"].startswith(prefix), error


def test_exponent_notation_exits_2_at_once(capsys):
    # Fraction reads 1e300000 as a 300001-digit integer; a scalar refuses it
    for argv in (
        ("dims", "--P=x(x-1e3)", "--t=2"),
        ("dims", "--P=x(x-1)", "--t=1E3i"),
        ("dims", "--P=x(x-1e300000)", "--t=2"),
        ("moments", "--P=x", "--t=2", "--Q=1e3", "--n=1"),
    ):
        start = time.perf_counter()
        code, out = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        assert "exponent notation" in json.loads(out)["error"]["message"]
    code, out = run_cli(capsys, "dims", "--P=x(x-1000)", "--t=2")
    assert code == 0


def test_coset_span_bound(tmp_path, capsys):
    # the span of a coset counts from its representative, the point of real
    # part in [0, 1); the bound is accepted, one past it exits 2 at once
    top = MAX_COSET_SPAN
    gaussian = [["1/3+2i", 1], [f"{3 * top + 1}/3+2i", 2]]
    for P in (f"x(x-{top})", f"(x+{top})", gaussian):
        path = tmp_path / "accepted.json"
        path.write_text(json.dumps({"params": {"P": P, "t": "2", "Q": "1"}}))
        for argv in (
            ("dims", "--json", str(path)),
            ("degenerate-basis", "--json", str(path)),
            ("check-degenerate", "--json", str(path)),
        ):
            code, out = run_cli(capsys, *argv)
            assert code == 0, (P, argv)
    over = (f"x(x-{top + 1})", f"(x+{top + 1})", f"(x+1)(x-{top})",
            [["1/3+2i", 1], [f"{3 * top + 4}/3+2i", 2]])
    for P in over:
        for name, (_, flags) in cli._COMMANDS.items():
            if "P" not in flags:
                continue
            params = {"P": P, "t": "2", "Q": "1", "n": 1, "nmax": 1,
                      "kind": "string", "a": "0", "j": 1, "lambda": "1"}
            path = tmp_path / "over.json"
            path.write_text(json.dumps({"params": params}))
            start = time.perf_counter()
            code, out = run_cli(capsys, name, "--json", str(path))
            assert time.perf_counter() - start < 1.0, (P, name)
            assert code == 2, (P, name)
            error = json.loads(out)["error"]
            assert error["type"] == "UsageError"
            assert error["message"].startswith(f"--P has a coset span of {top + 1};")


def test_degree_bound(capsys):
    # the bound is accepted; one past it exits 2 at once, naming --P
    top = MAX_DEGREE
    assert top >= 600  # dims of x^300(x-1)^300 stays accepted
    for P in (f"x^{top}", f"x^{top // 2}(x-1)^{top - top // 2}"):
        code, out = run_cli(capsys, "dims", f"--P={P}", "--t=2")
        assert code == 0, P
        assert json.loads(out)["dimC"] == top
    for argv in (
        ("dims", f"--P=x^{top + 1}", "--t=2"),
        ("moments", f"--P=x^{top}(x-1/3)", "--t=2", "--Q=1", "--n=1"),
        ("degenerate-basis", "--P=x^200000", "--t=2"),
    ):
        start = time.perf_counter()
        code, out = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        error = json.loads(out)["error"]
        assert error["type"] == "UsageError"
        assert error["message"].startswith("--P has degree "), error


def test_answers_too_long_to_print_name_their_flags(capsys):
    # t^-1000 has 5000 digits, and so does the denominator of a moment at
    # t = 100000 or with a root of denominator 997; Python prints no int
    # that long
    for argv in (
        ("check-degenerate", "--P=x(x-1000)", "--t=100000", "--Q=1"),
        ("moments", "--P=x(x-1)", "--t=100000", "--Q=1", "--n=1000"),
        ("moments", "--P=x(x-1/997)", "--t=2", "--Q=1", "--n=1000"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["type"] == "UsageError", argv
        assert "integer too long to print" in error["message"]
        for flag in ("--n", "--t", "--Q", "--P"):
            assert flag in error["message"]


def _digit_requests(d: int):
    """(argv, flag) pairs, each with one integer of d digits in that flag."""
    big, nines = "1" * d, "9" * d
    root = "1" * sys.get_int_max_str_digits()
    check = ("check-degenerate", "--P=x(x-1)", "--t=2")
    string = ("findim", "--kind=string", "--t=2", "--j=1", "--order=0")
    jordan = ("findim", "--kind=jordan", "--P=(x+1/2)^2(x-3/2)^2", "--t=2",
              "--a=0", "--blocks=2", "--k=2", "--order=0")
    return (
        (("dims", "--P=x", f"--t={big}"), "--t"),
        ((*check, f"--Q={big}"), "--Q"),
        ((*check, f"--Q=1,-{big}"), "--Q"),
        ((*check, f"--Q=[1, {big}]"), "--Q"),
        ((*check, f'--Q=["1/{big}"]'), "--Q"),
        (("dims", f"--P=(x-{big}i)", "--t=2"), "--P"),
        (("dims", f"--P=x^{nines}", "--t=2"), "--P"),
        # at the limit a and a + 1 are roots, one coset of span 1
        ((*string, f"--P=(x-{root}i)(x-1-{root}i)", f"--a={big}i", "--lambda=1"), "--a"),
        ((*string, "--P=x(x-1)", "--a=0", f"--lambda={big}"), "--lambda"),
        ((*jordan, f"--C=-{big}"), "--C"),
    )


def test_input_integers_past_the_digit_limit_name_their_flag(capsys):
    # Python reads no integer of more than sys.get_int_max_str_digits()
    # digits; at the limit each request runs, one past it exits 2 naming
    # the flag
    limit = sys.get_int_max_str_digits()
    for argv, flag in _digit_requests(limit):
        code = main(list(argv))
        out = capsys.readouterr().out
        if flag == "--P" and "^" in argv[1]:
            assert json.loads(out)["error"]["message"].startswith("--P has degree 9")
        else:
            assert code == 0, (flag, out[:200])
    for argv, flag in _digit_requests(limit + 1):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, flag
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error == {
            "type": "UsageError",
            "message": f"{flag} holds an integer of more than {limit} digits, "
            "more than Python reads",
        }, flag


def test_long_inputs_are_quoted_briefly_and_name_their_flag(capsys):
    # an error quotes a prefix of a long input and its length, never all of it
    junk = "x" * 5000
    check = ("check-degenerate", "--P=x(x-1)", "--t=2")
    spec = (*check, "--Q=1")
    string = ("findim", "--kind=string", "--P=x(x-1)", "--t=2", "--a=0", "--j=1",
              "--lambda=1")
    jordan = ("findim", "--kind=jordan", "--P=x(x-1)", "--t=2", "--a=0", "--blocks=1",
              "--k=1", "--C=1")
    requests = {
        "--t": ("dims", "--P=x", f"--t={junk}"),
        "--P": ("dims", f"--P=(x-{junk})", "--t=2"),
        "--Q": (*check, f"--Q=1,{junk}"),
        "--a": (*string[:4], f"--a={junk}", *string[5:]),
        "--lambda": (*string[:-1], f"--lambda={junk}"),
        "--C": (*jordan[:-1], f"--C={junk}"),
        "n": ("moments", "--P=x", "--t=2", "--Q=1", f"--n={junk}"),
        "nmax": ("profile", *spec[1:], f"--nmax={junk}"),
        "order": (*string, f"--order={junk}"),
        "j": (*string[:5], f"--j={junk}", string[6]),
        "blocks": (*jordan[:5], f"--blocks={junk}", *jordan[6:]),
        "k": (*jordan[:6], f"--k={junk}", jordan[7]),
        "seed": ("selftest", f"--seed={junk}"),
        "mode": ("decompose", *spec[1:], f"--mode={junk}"),
    }
    for flag, argv in requests.items():
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, flag
        assert captured.err == ""
        assert len(captured.out.encode()) < 300, (flag, captured.out[:400])
        message = json.loads(captured.out)["error"]["message"]
        assert message.startswith((f"{flag}: ", f"{flag} must be ")), message
        # the quote of the junk, or of the factor or root around it
        assert re.search(r"\.\.\. \(500\d characters\)", message), message


def test_flag_named_errors_keep_their_type(capsys, tmp_path):
    # naming the flag changes the message only, never the error's type
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"subcommand": ', encoding="utf-8")
    cases = [
        (("moments", f"--json={bad_json}"), "JSONDecodeError", "--json: "),
        (("moments", "--P=x(x-1)", "--t=2", "--Q=[1,", "--n=3"),
         "JSONDecodeError", "--Q: "),
        (("moments", "--P=x(x-1)", "--t=2", "--Q=[true]", "--n=3"),
         "UsageError", "--Q: "),
        (("dims", "--P=x(x-1)", "--t=abc"), "ValueError", "--t: "),
        (("dims", "--P=x(y-1)", "--t=2"), "ValueError", "--P: "),
    ]
    for argv, kind, prefix in cases:
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        error = json.loads(out)["error"]
        assert error["type"] == kind, (argv, error)
        assert error["message"].startswith(prefix), (argv, error)


def test_counts_past_the_digit_limit_give_their_bound(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    spec = ("--P=x", "--t=2", "--Q=1")
    past = f"got one of more than {limit} digits"
    for digits, message in (
        ("1" * limit, f"n must be at most {MAX_ORDER}, got 1"),
        ("1" * (limit + 1), f"n must be at most {MAX_ORDER}, {past}"),
        ("-" + "1" * (limit + 1), f"n must be at least 0, {past}"),
    ):
        code, out = run_cli(capsys, "moments", *spec, f"--n={digits}")
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith(message)
    code, out = run_cli(capsys, "selftest", "--seed=" + "7" * (limit + 1))
    assert code == 2
    assert json.loads(out)["error"]["message"] == (
        f"seed must be an integer, got one of more than {limit} digits"
    )
    # an integer literal past the limit in a request file names --json
    path = tmp_path / "long.json"
    path.write_text('{"params": {"P": "x", "t": ' + "1" * (limit + 1) + "}}")
    code, out = run_cli(capsys, "dims", "--json", str(path))
    assert code == 2
    assert json.loads(out)["error"]["message"].startswith("--json holds an integer")


def test_dims_counts_without_building_a_basis(capsys, monkeypatch):
    # dimD is delta(P), which the closed form of degenerate_basis proves
    def refuse(P, t):
        raise AssertionError("dims built a degenerate basis")

    monkeypatch.setattr(cli, "degenerate_basis", refuse)
    code, out = run_cli(capsys, "dims", "--P=x^300(x-1)^300", "--t=2")
    assert code == 0
    assert json.loads(out) == {"dimC": 600, "dimD": 300, "delta": 300}
    code, out = run_cli(capsys, "dims", "--P=x(x-1)", "--t=0")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["message"] == "the twist parameter t must be nonzero"


def test_findim_validates_once_per_request(capsys, monkeypatch):
    calls = []
    check = ModuleRep.validate

    def counted(rep, P):
        calls.append(rep.dim)
        return check(rep, P)

    monkeypatch.setattr(ModuleRep, "validate", counted)
    for argv in (
        ("--kind=string", "--P=x(x-2)", "--t=3", "--a=0", "--j=2", "--lambda=1"),
        ("--kind=jordan", "--P=(x+1/2)^2(x-3/2)^2", "--t=2", "--a=0",
         "--blocks=2", "--k=2", "--C=1"),
    ):
        calls.clear()
        code, _ = run_cli(capsys, "findim", *argv, "--order=3")
        assert code == 0, argv
        assert len(calls) == 1, argv


def test_each_request_expands_q_over_p_once(capsys, monkeypatch):
    calls = []
    expand = exactkernel.partial_fractions

    def counted(R, P):
        calls.append(P.degree)
        return expand(R, P)

    # every module of the package that binds the function
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kleintrace" and vars(module).get(
            "partial_fractions"
        ) is expand:
            monkeypatch.setattr(module, "partial_fractions", counted)
    # Q is degenerate with parts of orders 1 and 2, so every route runs to
    # its end and decompose gives two components of each kind
    spec = ("--P=x^2(x-1)^2", "--t=2", "--Q=-1/2,1/2,1/2,1/2")
    for argv in (
        ("check-degenerate", *spec),
        ("reconstruct", *spec),
        ("decompose", *spec),
        ("lerch-check", "--P=x(x-1)", "--t=-1/2", "--Q=1,2"),
    ):
        calls.clear()
        code, out = run_cli(capsys, *argv)
        assert code == 0, out
        assert len(calls) == 1, argv
    assert json.loads(out)["maxResidual"] < 1e-9


def test_degenerate_basis_expands_p_once(capsys, monkeypatch):
    # every basis vector reads P's kept integer expansion
    calls = []
    fill = exactkernel._root_slots

    def counted(roots, size):
        roots = list(roots)
        calls.append(sum(e for *_, e in roots))
        return fill(roots, size)

    monkeypatch.setattr(exactkernel, "_root_slots", counted)
    code, out = run_cli(capsys, "degenerate-basis", "--P=x^2(x-1)^2", "--t=2")
    assert code == 0, out
    assert len(json.loads(out)["basis"]) == 2
    assert calls == [4]


def test_unknown_subcommand_exits_2(capsys, monkeypatch):
    # every malformed command line gets the error object, never SystemExit
    spec = ("--P=x(x-1)", "--t=2", "--Q=1,2")
    # a valid request on stdin, so that only the rule that --json stands
    # alone refuses "--json=- --n=9"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"subcommand": "moments", "params": {"P": "x", "t": "2", "Q": [1], "n": 1}}
    )))
    for argv in (
        ("frobnicate",),
        ("moments", *spec, "--n=2", "--bogus=1"),
        (),
        ("moments", *spec, "--n=2", "--n=3"),
        ("moments", *spec, "--n"),
        ("moments", "--json=-", "--n=9"),
        ("lerch-check", *spec, "--sam=[[2.5, 0.3]]"),
        ("moments", *spec, "-n", "2"),
        ("moments", *spec, "n=2"),
        ("--version", "dims"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err == ""
        assert json.loads(captured.out)["error"]["type"] == "UsageError", argv


def test_deeply_nested_json_exits_2(tmp_path, capsys, monkeypatch):
    # a RecursionError from the JSON reader becomes an error object that
    # names the flag, at each of the three places that read JSON text
    deep = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    monkeypatch.setattr("sys.stdin", io.StringIO(deep))
    for argv, flag in (
        (("dims", "--json", str(path)), "--json"),
        (("dims", "--json=-"), "--json"),
        (("moments", "--P=x(x-1)", "--t=2", "--n=1", "--Q=" + deep), "--Q"),
        (
            ("lerch-check", "--P=x(x-1)", "--t=-1", "--Q=1", "--samples=" + deep),
            "--samples",
        ),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, argv[0]
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["type"] == "UsageError"
        assert error["message"].startswith(flag), error


def test_request_forms_accepted(capsys):
    code, out = run_cli(capsys, "--version")
    assert (code, out) == (0, f"{__version__}\n")
    code, out = run_cli(capsys, "--help")
    assert code == 0
    assert json.loads(out)["moments"] == ["P", "t", "Q", "n", "json"]
    # the token after a flag is its value even when it starts with a dash
    for spaced, joined in (
        (("dims", "--P", "x(x-1)", "--t", "-1"), ("dims", "--P=x(x-1)", "--t=-1")),
        (
            ("moments", "--P", "x(x-1)", "--t", "2", "--Q", "-1,1", "--n", "2"),
            ("moments", "--P=x(x-1)", "--t=2", "--Q=-1,1", "--n=2"),
        ),
    ):
        code, out = run_cli(capsys, *spaced)
        assert code == 0, spaced
        assert (code, out) == run_cli(capsys, *joined)


def _fresh_python(code, *args):
    """Run ``code`` in an isolated interpreter that imports from ``src``."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    setup = f"import sys; sys.path.insert(0, {src!r}); "
    return subprocess.run(
        [sys.executable, "-I", "-c", setup + code, *args],
        capture_output=True, text=True, timeout=60,
    )


def test_entry_point_error_objects_and_no_argparse():
    # python -m kleintrace.cli, in an interpreter where -I keeps PYTHONPATH
    # out, so src is put on sys.path by hand
    entry = "import runpy; runpy.run_module('kleintrace.cli', run_name='__main__')"
    for argv in ((), ("frobnicate",), ("moments", "--bogus=1")):
        proc = _fresh_python(entry, *argv)
        assert proc.returncode == 2, argv
        assert proc.stderr == ""
        assert set(json.loads(proc.stdout)["error"]) == {"type", "message"}
    proc = _fresh_python("import kleintrace.cli; print('argparse' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


def test_cli_import_loads_no_introspection_modules():
    # each of these costs start-up on every call (dataclasses alone pulls in
    # inspect, ast, dis and tokenize), and none is needed to answer a request:
    # json only reads --json and JSON-valued flags, and selftest and its
    # catalog answer only selftest.  Every layer module still loads, as the
    # benchmark's tracer reads each of them from sys.modules.
    heavy = (
        "dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "json",
        "kleintrace.selftest", "kleintrace.catalog",
    )
    spans = os.path.join(os.path.dirname(os.path.dirname(__file__)), "kleinbench", "spans.py")
    with open(spans, encoding="utf-8") as fh:
        layers = re.search(r"^LAYERS = \((.*)\)$", fh.read(), re.M).group(1)
    layers = tuple(re.findall(r'"(\w+)"', layers))
    assert len(layers) == 9
    proc = _fresh_python(
        f"import kleintrace.cli; print([m for m in {heavy!r} if m in sys.modules], "
        f"[m for m in {layers!r} if 'kleintrace.' + m not in sys.modules])"
    )
    assert proc.stdout == "[] []\n", proc.stderr


# every JSON value the emitter takes, control characters, non-ASCII text,
# booleans beside integers, big integers and every kind of float among them
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e-300])
    | st.text()
    | st.sampled_from(["", "\x00\x1f\x7f\n\t\"\\/", "é ü ∑ 😀", " ퟿"])
)
_json_docs = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300)
@given(_json_docs)
@example({})
@example([])
@example({"b": [], "a": {}, "c": [True, 1, False, 0, None]})
def test_emitter_writes_what_json_dumps_writes(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_emitter_refuses_what_json_dumps_refuses():
    for value in (object(), {1, 2}, b"bytes", 1j):
        for doc in (value, [value], {"k": value}):
            with pytest.raises(TypeError):
                json.dumps(doc, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                cli._dumps(doc)


def test_lerch_check_refuses_p_past_double_range_at_a_sample(capsys):
    # each root fits a double, but P at a sample does not: a root of
    # multiplicity 2 overflows its power, two distinct roots their product
    big = "1" + "0" * 300
    for P in (f"x^2(x-{big}i)^2", f"x(x-{big}i)(x+{big}i)"):
        code = main(["lerch-check", f"--P={P}", "--t=1/2", "--Q=1,2"])
        out, err = capsys.readouterr()
        assert (code, err) == (2, ""), P
        assert json.loads(out) == {
            "error": {
                "type": "ValueError",
                "message": "P is out of double range at sample (2+0.3j)",
            }
        }


def test_decompose_decides_degeneracy_once(capsys, monkeypatch):
    # --mode=both reads degeneracy off the two-root chains, which the split
    # runs anyway, and never runs the coset criterion besides; the work
    # still goes through the public decompose_two_root, which spans time
    chains, splits = [], []
    run_chain, split = degeneracy._chain, cli.decompose_two_root

    def counted_chain(*args):
        chains.append(args)
        return run_chain(*args)

    def counted_split(*args, **kwargs):
        splits.append(kwargs)
        return split(*args, **kwargs)

    monkeypatch.setattr(degeneracy, "_chain", counted_chain)
    monkeypatch.setattr(cli, "decompose_two_root", counted_split)
    monkeypatch.setattr(cli, "delta_criterion", None)
    spec = ("--P=x^2(x-1)^2", "--t=2")
    # (Q, mode, chains run: one per level (coset, k), twoRoot's length)
    for Q, mode, levels, two_root in (
        ("-1/2,1/2,1/2,1/2", "both", 2, 2),
        ("1", "both", 2, None),
        ("1", "pole-order", 0, "absent"),
    ):
        chains.clear()
        code, out = run_cli(capsys, "decompose", *spec, f"--Q={Q}", f"--mode={mode}")
        assert code == 0, out
        assert len(chains) == levels
        two = json.loads(out).get("twoRoot", "absent")
        assert (two if two in (None, "absent") else len(two)) == two_root
    assert splits == [{"strict": False}] * 2
    code, out = run_cli(capsys, "decompose", *spec, "--Q=1", "--mode=two-root")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValueError",
        "message": "two-root decomposition needs a degenerate trace",
    }
