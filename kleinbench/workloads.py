"""The three workloads: how one pass of generated traffic becomes operations.

The harness times an operation's ``run`` alone and then calls ``check`` on
its result.  Library calls go through the ``kleintrace`` package and module
attributes at call time, so the traced run sees them once the tracer has
rebound those names.

Each pass builds fresh library objects, so nothing computed in one pass is
reused by the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from typing import Callable, NamedTuple

import gen
import kleintrace as kt
import kleintrace.cli

LERCH_TOLERANCE = 1e-8


class Op(NamedTuple):
    label: str
    run: Callable
    check: Callable
    known_defect: bool = False


def output_digest(code, out: str) -> str:
    return gen.digest([code, out])[:16]


# -- cli-catalog ---------------------------------------------------------------


def cli_call(req):
    """Run one request in process, as the console script would: (code, stdout).

    An exception that escapes ``main`` is what the console script turns into
    a traceback with exit code 1, so it is reported as code 1.
    """
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(req["stdin"] or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = kleintrace.cli.main(list(req["argv"]))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = 1
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def _is_error_object(out: str) -> bool:
    try:
        doc = json.loads(out)
    except ValueError:
        return False
    err = doc.get("error") if isinstance(doc, dict) else None
    return isinstance(err, dict) and {"type", "message"} <= set(err)


def _lerch_ok(out: str) -> bool:
    try:
        worst = json.loads(out)["maxResidual"]
    except (ValueError, KeyError, TypeError):
        return False
    return isinstance(worst, float) and worst <= LERCH_TOLERANCE


def check_cli(req, result, golden) -> bool:
    """Whether a response is what the request class promises.

    exact: exit 0 and the frozen digest.  lerch: exit 0 and a residual within
    tolerance.  error: exit 2 with an error object.  defect: the documented
    behaviour, which is success for lerch-check and exit 2 otherwise.
    """
    code, out = result
    cls, argv = req["cls"], req["argv"]
    if cls == "exact":
        key = gen.request_key(argv, req["stdin"])
        return code == 0 and golden.get(key) == output_digest(code, out)
    if cls == "lerch" or (cls == "defect" and argv[0] == "lerch-check"):
        return code == 0 and _lerch_ok(out)
    return code == 2 and _is_error_object(out)


def cli_ops(traffic, golden):
    for req in traffic:
        yield Op(
            " ".join(req["argv"]),
            lambda req=req: cli_call(req),
            lambda result, req=req: check_cli(req, result, golden),
            req["cls"] == "defect",
        )


# -- moment-deep -----------------------------------------------------------------


def spec_key(data) -> str:
    return gen.digest(data)[:16]


def deep_analysis(data):
    """Full analysis of one fresh trace: moments, tri-oracle, profile, round trip."""
    P = kt.parse_factored(data["P"])
    t = kt.GaussianRational.from_string(data["t"])
    Q = kt.DensePolynomial.from_json(data["Q"])
    spec = kt.TraceSpec(P, t, Q)
    bound = kt.pole_bounds(P).total
    mom = spec.moments(gen.DEEP_MOMENTS)
    by_delta = kt.delta_criterion(spec).degenerate
    rank = kt.hankel_rank(mom, bound + 6)
    window = [kt.pade_approximant(mom, n).S for n in range(bound, bound + 6)]
    profile = kt.degeneracy_profile(spec, bound + 2)
    round_trip = kt.q_from_moments(P, t, mom) == Q
    return {
        "degenerate": by_delta,
        "oraclesAgree": by_delta == (rank <= bound) == all(s == window[0] for s in window),
        "roundTrip": round_trip,
        "hankelRank": rank,
        "padeS": window[0].to_json(),
        "profile": [list(row) for row in profile],
    }


def deep_digest(result) -> str:
    return gen.digest(result)[:16]


def check_deep(data, result, golden) -> bool:
    return (
        result["oraclesAgree"]
        and result["roundTrip"]
        and golden.get(spec_key(data)) == deep_digest(result)
    )


def deep_ops(traffic, golden):
    for data in traffic:
        yield Op(
            f"moment-deep {data}",
            lambda data=data: deep_analysis(data),
            lambda result, data=data: check_deep(data, result, golden),
        )


# -- trace-identity ----------------------------------------------------------------


def identity_ops(traffic, golden=None):
    """T(ab) = T(g_t(b) a) on element pairs, then the shifted-product identity
    T((S P)(z - 1/2)) = t T((S P)(z + 1/2)) for S = z^k with k rising, all on
    one trace per cell whose moment cache grows as the degrees rise.
    """
    half = kt.GaussianRational(1) / kt.GaussianRational(2)
    for cell in traffic:
        P = kt.parse_factored(cell["P"])
        t = kt.GaussianRational.from_string(cell["t"])
        spec = kt.TraceSpec(P, t, kt.DensePolynomial.from_json(cell["Q"]))
        pexp = P.expand()

        def element(comps):
            return kt.AlgebraElement(
                P, {int(k): kt.DensePolynomial.from_json(q) for k, q in comps.items()}
            )

        for a_data, b_data in cell["pairs"]:
            a, b = element(a_data), element(b_data)

            def pair(a=a, b=b):
                lhs = kt.evaluate_trace(spec, a * b)
                return lhs == kt.evaluate_trace(spec, kt.apply_gt(b, t) * a)

            yield Op(f"pair on {cell['P']} t={cell['t']}: {a_data} {b_data}", pair, bool)
        for k in cell["monomials"]:
            product = kt.DensePolynomial([0] * k + [1]) * pexp

            def monomial(product=product):
                lhs = spec.trace_of_poly(product.shift(-half))
                return lhs == t * spec.trace_of_poly(product.shift(half))

            yield Op(f"monomial z^{k} on {cell['P']} t={cell['t']}", monomial, bool)


OPS = {"cli-catalog": cli_ops, "moment-deep": deep_ops, "trace-identity": identity_ops}
GOLDEN_SECTION = {"cli-catalog": "cli", "moment-deep": "deep", "trace-identity": None}
