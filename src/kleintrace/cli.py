"""JSON command-line front end.

Every subcommand reads exact inputs (factored P, scalar t, coefficient list
Q), runs one operation, and writes a single JSON document to stdout.
Validation problems, bad numbers among them (a float coefficient, a zero
denominator), exit with code 2 and a machine-readable error object.  Exit
code 1 means only that a selftest check failed or raised: the report on
stdout is still valid JSON and names the check.  Success exits 0.
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
    reconstruct_rational,
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


def _exact(values, what: str):
    """A JSON list of exact numbers: integers or scalar strings, no floats."""
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, (int, str)) for v in values
    ):
        raise UsageError(f"{what} must be integers or strings, got {values!r}")
    return values


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
    if isinstance(value, int):
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
    return {"moments": spec.moments(int(n)).to_json()}


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
    spec = _spec_from_params(params)
    numer, denom = reconstruct_rational(spec)
    return {
        "R": numer.to_json(),
        "S": denom.to_json(),
        "radicalGenerator": denom.to_json(),
        "poles": reconstruct_principal_parts(spec).to_json(),
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
    n = int(n)
    approx = pade_approximant(spec.moments(max(2 * n - 1, 0)), n)
    return approx.to_json()


def _cmd_profile(params: dict) -> dict:
    spec = _spec_from_params(params)
    (n_max,) = _need(params, "nmax")
    return {
        "profile": [
            {"n": n, "degS": deg, "nDegenerate": flag}
            for n, deg, flag in degeneracy_profile(spec, int(n_max))
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
    order = int(params.get("order", 10))
    if kind == "string":
        j_raw, lam_raw = _need(params, "j", "lambda")
        rep = build_string_module(P, a, int(j_raw), _parse_scalar(lam_raw), t)
    else:
        n_raw, k_raw, c_raw = _need(params, "blocks", "k", "C")
        rep = build_jordan_module(
            P, a, int(n_raw), int(k_raw), _parse_scalar(c_raw), t
        )
    moments = module_trace(rep, P, t, order)
    return {**rep.to_json(), "moments": moments.to_json()}


def _cmd_lerch_check(params: dict) -> dict:
    spec = _spec_from_params(params)
    raw_samples = params.get("samples")
    if raw_samples is None:
        # default grid: 20 points, Re in [2, 6], slightly off the real axis
        samples = [complex(2.0 + 4.0 * k / 19.0, 0.3) for k in range(20)]
    else:
        if isinstance(raw_samples, str):
            raw_samples = json.loads(raw_samples)
        samples = [complex(float(re), float(im)) for re, im in raw_samples]
    worst, detail = verify_lerch_recursion(spec, samples)
    return {
        "maxResidual": worst,
        "samples": [
            {"x": [x.real, x.imag], "residual": r} for x, r in detail
        ],
    }


def _cmd_selftest(params: dict) -> dict:
    seed = int(params.get("seed", 7))
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

    def add(name, *flags, **named):
        sp = sub.add_parser(name)
        sp.add_argument(
            "--json",
            dest="json_request",
            help="read the full request object from a file ('-' for stdin)",
        )
        for flag in flags:
            sp.add_argument(f"--{flag}")
        for flag, kw in named.items():
            sp.add_argument(f"--{flag}", **kw)
        return sp

    add("dims", "P", "t")
    add("moments", "P", "t", "Q", n={"type": int})
    add("check-degenerate", "P", "t", "Q")
    add("degenerate-basis", "P", "t")
    add("reconstruct", "P", "t", "Q")
    add("decompose", "P", "t", "Q", mode={"default": "both"})
    add("pade", "P", "t", "Q", n={"type": int})
    add("profile", "P", "t", "Q", nmax={"type": int})
    add(
        "findim",
        "P",
        "t",
        "a",
        "C",
        kind={"choices": ("string", "jordan")},
        j={"type": int},
        blocks={"type": int},
        k={"type": int},
        order={"type": int, "default": 10},
        **{"lambda": {"dest": "lam"}},
    )
    add("lerch-check", "P", "t", "Q", "samples")
    add("selftest", seed={"type": int, "default": 7})
    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    params = {
        key: value
        for key, value in vars(args).items()
        if key not in ("subcommand", "json_request") and value is not None
    }
    if "lam" in params:
        params["lambda"] = params.pop("lam")
    return params


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
            subcommand = payload.get("subcommand", args.subcommand)
            params = dict(payload.get("params", {}))
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
