"""JSON command-line front end.

Every subcommand reads exact inputs (factored P, scalar t, coefficient list
Q), runs one operation, and writes a single JSON document to stdout.
Validation problems, bad numbers among them (a float or boolean
coefficient or count, a zero denominator), exit with code 2 and a
machine-readable error object, and so does a request outside an
operation's domain: ``lerch-check`` takes |t| <= 1 with t != 1, including
the whole unit circle, and refuses a t within about 0.05 of 1, where the
Lerch sums would need more than ``lerch.TERM_CAP`` terms.  Counts are
bounded: ``moments --n`` and ``findim --order`` by MAX_ORDER (1000),
``pade --n`` and ``profile --nmax`` by MAX_PADE_ORDER (40), lerch-check
sample coordinates by MAX_SAMPLE_COORDINATE.  Exit code 1 means only
that a selftest check failed or raised: the report on stdout is still
valid JSON and names the check.  Success exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .degeneracy import (
    decompose_pole_order,
    decompose_two_root,
    degenerate_basis,
    delta_criterion,
    delta_invariant,
    reconstruct_principal_parts,
)
from .exactkernel import (
    DensePolynomial,
    FactoredPolynomial,
    GaussianRational,
    parse_factored,
)
from .findim import build_jordan_module, build_string_module, module_trace
from .lerch import verify_lerch_recursion
from .pade import degeneracy_profile, pade_approximant
from .selftest import run_selftest
from .tracespace import TraceSpec, trace_dim


class UsageError(ValueError):
    pass


# largest |Re x| and |Im x| of a lerch-check sample; lerch_phi lifts a
# point with Re x < 0 one step at a time, so this also bounds that loop
MAX_SAMPLE_COORDINATE = 10**4
# largest moment order (moments --n, findim --order) and Pade order (pade
# --n, profile --nmax); at these bounds a request takes seconds
MAX_ORDER = 1000
MAX_PADE_ORDER = 40


def _exact(values, what: str):
    """A JSON list of exact numbers: integers or scalar strings, no floats
    and no booleans."""
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, (int, str)) and not isinstance(v, bool) for v in values
    ):
        raise UsageError(f"{what} must be integers or strings, got {values!r}")
    return values


def _int(value, name: str, most=None) -> int:
    """A JSON integer (not a boolean) or an integer string, at most ``most``
    if given, else UsageError."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if most is not None and value > most:
        raise UsageError(f"{name} must be at most {most}, got {value}")
    return value


def _parse_poly(text) -> DensePolynomial:
    """Ascending coefficients, comma separated or a JSON-style list."""
    if not isinstance(text, str):
        return DensePolynomial.from_json(_exact(text, "coefficients"))
    text = text.strip()
    if not text:
        return DensePolynomial.zero()
    if text.startswith("["):
        return DensePolynomial.from_json(_exact(json.loads(text), "coefficients"))
    return DensePolynomial(
        GaussianRational.from_string(part) for part in text.split(",")
    )


def _parse_p(value) -> FactoredPolynomial:
    if isinstance(value, str):
        return parse_factored(value)
    if not isinstance(value, (list, tuple)):
        raise UsageError(f"cannot read P from {value!r}")
    for pair in value:
        if len(_exact(pair, "a root of P and its multiplicity")) != 2:
            raise UsageError(f"cannot read a root of P from {pair!r}")
    return FactoredPolynomial.from_json(value)


def _parse_scalar(value) -> GaussianRational:
    if isinstance(value, str):
        return GaussianRational.from_string(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return GaussianRational(value)
    raise UsageError(f"cannot read scalar from {value!r}")


def _need(params: dict, *names):
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise UsageError(f"missing required parameter(s): {', '.join(missing)}")
    return [params[n] for n in names]


def _spec_from_params(params: dict) -> TraceSpec:
    p_raw, t_raw, q_raw = _need(params, "P", "t", "Q")
    return TraceSpec(_parse_p(p_raw), _parse_scalar(t_raw), _parse_poly(q_raw))


def _cmd_dims(params: dict) -> dict:
    p_raw, t_raw = _need(params, "P", "t")
    P = _parse_p(p_raw)
    t = _parse_scalar(t_raw)
    total, _ = delta_invariant(P)
    return {
        "dimC": trace_dim(P, t),
        "dimD": len(degenerate_basis(P, t)),
        "delta": total,
    }


def _cmd_moments(params: dict) -> dict:
    spec = _spec_from_params(params)
    (n,) = _need(params, "n")
    return {"moments": spec.moments(_int(n, "n", MAX_ORDER)).to_json()}


def _cmd_check_degenerate(params: dict) -> dict:
    return delta_criterion(_spec_from_params(params)).to_json()


def _cmd_degenerate_basis(params: dict) -> dict:
    p_raw, t_raw = _need(params, "P", "t")
    P = _parse_p(p_raw)
    t = _parse_scalar(t_raw)
    basis = degenerate_basis(P, t)
    total, _ = delta_invariant(P)
    return {"delta": total, "basis": [spec.to_json() for spec in basis]}


def _cmd_reconstruct(params: dict) -> dict:
    parts = reconstruct_principal_parts(_spec_from_params(params))
    numer, denom = parts.to_rational()
    return {
        "R": numer.to_json(),
        "S": denom.to_json(),
        "radicalGenerator": denom.to_json(),
        "poles": parts.to_json(),
    }


def _cmd_decompose(params: dict) -> dict:
    spec = _spec_from_params(params)
    mode = params.get("mode", "both")
    if mode not in ("pole-order", "two-root", "both"):
        raise UsageError(f"unknown decomposition mode {mode!r}")
    out = {}
    if mode in ("pole-order", "both"):
        out["poleOrder"] = [
            {"k": k, **component.to_json()}
            for k, component in decompose_pole_order(spec)
        ]
    if mode in ("two-root", "both"):
        if delta_criterion(spec).degenerate:
            out["twoRoot"] = [
                component.to_json() for _, component in decompose_two_root(spec)
            ]
        elif mode == "two-root":
            raise ValueError("two-root decomposition needs a degenerate trace")
        else:
            out["twoRoot"] = None
    return out


def _cmd_pade(params: dict) -> dict:
    spec = _spec_from_params(params)
    (n,) = _need(params, "n")
    n = _int(n, "n", MAX_PADE_ORDER)
    approx = pade_approximant(spec.moments(max(2 * n - 1, 0)), n)
    return approx.to_json()


def _cmd_profile(params: dict) -> dict:
    spec = _spec_from_params(params)
    (n_max,) = _need(params, "nmax")
    n_max = _int(n_max, "nmax", MAX_PADE_ORDER)
    return {
        "profile": [
            {"n": n, "degS": deg, "nDegenerate": flag}
            for n, deg, flag in degeneracy_profile(spec, n_max)
        ]
    }


def _cmd_findim(params: dict) -> dict:
    kind = params.get("kind")
    if kind not in ("string", "jordan"):
        raise UsageError("findim needs kind = string or jordan")
    p_raw, t_raw, a_raw = _need(params, "P", "t", "a")
    P = _parse_p(p_raw)
    t = _parse_scalar(t_raw)
    a = _parse_scalar(a_raw)
    order = _int(params.get("order", 10), "order", MAX_ORDER)
    if kind == "string":
        j_raw, lam_raw = _need(params, "j", "lambda")
        j = _int(j_raw, "j")
        rep = build_string_module(P, a, j, _parse_scalar(lam_raw), t)
    else:
        n_raw, k_raw, c_raw = _need(params, "blocks", "k", "C")
        blocks, k = _int(n_raw, "blocks"), _int(k_raw, "k")
        rep = build_jordan_module(P, a, blocks, k, _parse_scalar(c_raw), t)
    moments = module_trace(rep, P, t, order)
    return {**rep.to_json(), "moments": moments.to_json()}


def _coordinate(value) -> float:
    """A finite JSON number (not a boolean) of size <= MAX_SAMPLE_COORDINATE."""
    # NaN and the infinities fail the size test too
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= MAX_SAMPLE_COORDINATE
    ):
        return float(value)
    raise UsageError(
        "sample coordinates must be finite numbers of size at most "
        f"{MAX_SAMPLE_COORDINATE}, got {value!r}"
    )


def _samples(raw) -> list[complex]:
    """A JSON list of [re, im] pairs of sample coordinates."""
    if not isinstance(raw, (list, tuple)):
        raise UsageError(f"samples must be a list of [re, im] pairs, got {raw!r}")
    out = []
    for pair in raw:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise UsageError(f"a sample must be an [re, im] pair, got {pair!r}")
        out.append(complex(_coordinate(pair[0]), _coordinate(pair[1])))
    return out


def _cmd_lerch_check(params: dict) -> dict:
    spec = _spec_from_params(params)
    raw_samples = params.get("samples")
    if raw_samples is None:
        # default grid: 20 points, Re in [2, 6], slightly off the real axis
        samples = [complex(2.0 + 4.0 * k / 19.0, 0.3) for k in range(20)]
    else:
        if isinstance(raw_samples, str):
            raw_samples = json.loads(raw_samples)
        samples = _samples(raw_samples)
    worst, detail = verify_lerch_recursion(spec, samples)
    return {
        "maxResidual": worst,
        "samples": [
            {"x": [x.real, x.imag], "residual": r} for x, r in detail
        ],
    }


def _cmd_selftest(params: dict) -> dict:
    seed = _int(params.get("seed", 7), "seed")
    return run_selftest(seed)


_HANDLERS = {
    "dims": _cmd_dims,
    "moments": _cmd_moments,
    "check-degenerate": _cmd_check_degenerate,
    "degenerate-basis": _cmd_degenerate_basis,
    "reconstruct": _cmd_reconstruct,
    "decompose": _cmd_decompose,
    "pade": _cmd_pade,
    "profile": _cmd_profile,
    "findim": _cmd_findim,
    "lerch-check": _cmd_lerch_check,
    "selftest": _cmd_selftest,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleintrace",
        description=(
            "Exact computations with twisted traces: dimensions, moments, "
            "degeneracy, rational reconstruction, Pade profiles, module "
            "traces, and numeric difference-equation checks."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand")

    def add(name, *flags):
        sp = sub.add_parser(name)
        sp.add_argument(
            "--json",
            dest="json_request",
            help="read the full request object from a file ('-' for stdin)",
        )
        for flag in flags:
            sp.add_argument(f"--{flag}")
        return sp

    add("dims", "P", "t")
    add("moments", "P", "t", "Q", "n")
    add("check-degenerate", "P", "t", "Q")
    add("degenerate-basis", "P", "t")
    add("reconstruct", "P", "t", "Q")
    add("decompose", "P", "t", "Q", "mode")
    add("pade", "P", "t", "Q", "n")
    add("profile", "P", "t", "Q", "nmax")
    add("findim", "P", "t", "a", "C", "kind", "j", "blocks", "k", "order", "lambda")
    add("lerch-check", "P", "t", "Q", "samples")
    add("selftest", "seed")
    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    return {
        key: value
        for key, value in vars(args).items()
        if key not in ("subcommand", "json_request") and value is not None
    }


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.subcommand:
        parser.print_usage(sys.stderr)
        return 2
    try:
        request = getattr(args, "json_request", None)
        if request:
            if request == "-":
                payload = json.load(sys.stdin)
            else:
                with open(request, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            params = payload.get("params", {}) if isinstance(payload, dict) else None
            if not isinstance(params, dict):
                raise UsageError("a --json request and its params must be JSON objects")
            subcommand = payload.get("subcommand", args.subcommand)
            params = dict(params)
            if "seed" in payload:
                params.setdefault("seed", payload["seed"])
        else:
            subcommand = args.subcommand
            params = _params_from_args(args)
        handler = _HANDLERS.get(subcommand)
        if handler is None:
            raise UsageError(f"unknown subcommand {subcommand!r}")
        result = handler(params)
    except (UsageError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(
            json.dumps(
                {"error": {"type": type(exc).__name__, "message": str(exc)}},
                indent=2,
                sort_keys=True,
            )
        )
        return 2
    print(json.dumps(result, indent=2, sort_keys=True))
    if subcommand == "selftest" and result.get("failed"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
