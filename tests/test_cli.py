"""Command-line front end: schemas, determinism, exit codes."""

import io
import json

import pytest

from kleintrace.cli import main
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


def test_selftest_runs_clean(capsys):
    code, out = run_cli(capsys, "selftest", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["passed"] == len(doc["checks"])
    assert doc["seed"] == 7


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
    # floats in JSON requests are not exact numbers
    for params in (
        {"Q": [1.5, 2]},
        {"Q": 1.5},
        {"Q": "[1, 2.5]"},
        {"P": [[0.5, 1], [1, 1]]},
        {"P": [[0, 1.0]], "Q": [1]},
    ):
        base = {"P": "x(x-1)", "t": "2", "Q": [1, 2], "n": 3}
        request = {"subcommand": "moments", "params": {**base, **params}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
        code, out = run_cli(capsys, "moments", "--json=-")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UsageError"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
