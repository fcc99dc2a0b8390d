"""JSON command-line front end.

A request is ``kleintrace SUBCOMMAND`` and then its flags, each
``--name=value`` or ``--name value`` (the next token verbatim, so ``--t -1``
works), named exactly and given at most once.  ``--json FILE`` (``-`` for
stdin) must be the only flag: it reads the request as an object with
"params" and optionally "seed" and a "subcommand", which overrides the
command line's.  ``kleintrace --version`` prints the version and
``kleintrace --help`` every subcommand's flags.

Every subcommand reads exact inputs (factored P, scalar t, coefficient list
Q), runs one operation, and writes a single JSON document to stdout, byte
for byte ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline,
written by ``_dumps`` without the stdlib's pure-Python indenting encoder.
Validation problems, a malformed request and bad numbers among them (an
unknown, repeated or valueless flag, a float or boolean count, a zero
denominator), exit with code 2 and a machine-readable error object, and so
does a request outside an operation's domain: ``lerch-check`` takes
|t| <= 1 with t != 1, including the whole unit circle, and refuses a t
within about 0.05 of 1, where the Lerch sums would need more than
``lerch.TERM_CAP`` terms.  Counts are bounded: ``moments --n`` and
``findim --order`` to 0..MAX_ORDER (1000), ``pade --n`` to
0..MAX_PADE_ORDER (40), ``profile --nmax`` to 1..MAX_PADE_ORDER, the
``findim`` module dimension, ``--j`` or ``--blocks`` times ``--k``, to
1..MAX_MODULE_DIM (64), lerch-check sample coordinates by
MAX_SAMPLE_COORDINATE, and the number of lerch-check samples to
MAX_SAMPLES (1000).  The roots of each coset of ``--P``, with its
representative (real part in [0, 1)), span at most MAX_COSET_SPAN (1000)
integers, and deg P is at most MAX_DEGREE (600).  Scalars are written
``p/q+r/si`` and its shorthands; exponent notation such as ``1e3`` is
refused.  An integer in a request may have at most as many digits as
Python reads (``sys.get_int_max_str_digits()``, 4300 by default); a longer
one exits 2 with an error object that names its flag.  An error names the
flag it is about, and quotes at most the first 40 characters of an input,
with its length.  An answer holding an integer too long for Python to print
exits 2 with an error object that names the flags setting its size.  Exit
code 1 means only that a selftest check failed or raised: the report on
stdout is still valid JSON and names the check.  Success exits 0.
"""

from __future__ import annotations

import sys

# the C function json.encoder binds on CPython: a request that never reads
# JSON text does not import json
from _json import encode_basestring_ascii as _quoted

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
    _over_digit_limit,
    _roots_by_coset,
    _shown,
    parse_factored,
)
from .findim import build_jordan_module, build_string_module, module_trace
from .lerch import verify_lerch_recursion
from .pade import degeneracy_profile, pade_approximant
from .tracespace import TraceSpec, trace_dim


class UsageError(ValueError):
    pass


# largest |Re x| and |Im x| of a lerch-check sample; lerch_phi lifts a
# point with Re x < 0 one step at a time, so this also bounds that loop
MAX_SAMPLE_COORDINATE = 10**4
# largest number of lerch-check samples; 1000 samples on x(x-1) take about
# 30 ms in process and print about 100 kB
MAX_SAMPLES = 1000
# largest moment order (moments --n, findim --order) and Pade order (pade
# --n, profile --nmax); at these bounds a request takes seconds
MAX_ORDER = 1000
MAX_PADE_ORDER = 40
# largest findim module dimension (--j, or --blocks times --k); the module
# holds 4 dim^2 scalars, and at this bound, MAX_ORDER and deg P = 600 a
# string or Jordan request took 0.6-1.6 s in process on a 2-core VM
MAX_MODULE_DIM = 64
# largest span of the roots of one coset of P and its representative; the
# degeneracy routes loop over that range and raise t to offsets in it
MAX_COSET_SPAN = 1000
# largest deg P; degenerate-basis builds delta(P) polynomials of degree
# deg P - 1, and delta(P) reaches deg P - 1 on simple roots in one coset:
# 600 of them give 599 vectors, in 13.1 s and about 1.7 GB peak RSS
MAX_DEGREE = 600


def _exact(values, what: str):
    """A JSON list of exact numbers: integers or scalar strings, no floats
    and no booleans."""
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, (int, str)) and not isinstance(v, bool) for v in values
    ):
        raise UsageError(f"{what} must be integers or strings, got {_shown(values)}")
    return values


def _named(exc: ValueError, flag: str) -> ValueError:
    """exc, of its own type, with "<flag>: " in front of its message unless
    the message starts with the flag already; in place of Python's
    digit-limit refusal, a UsageError that says so."""
    if _over_digit_limit(exc):
        return UsageError(
            f"{flag} holds an integer of more than {sys.get_int_max_str_digits()} "
            "digits, more than Python reads"
        )
    if not str(exc).startswith(flag):
        exc.args = (f"{flag}: {exc}",)
    return exc


def _int(value, name: str, least=None, most=None) -> int:
    """A JSON integer (not a boolean) or an integer string, at least
    ``least`` and at most ``most`` where given, else UsageError."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError as exc:
            if _over_digit_limit(exc):
                bound, side = (least, "at least") if "-" in value else (most, "at most")
                need = "an integer" if bound is None else f"{side} {bound}"
                raise UsageError(
                    f"{name} must be {need}, got one of more than "
                    f"{sys.get_int_max_str_digits()} digits"
                ) from None
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{name} must be an integer, got {_shown(value)}")
    if least is not None and value < least:
        raise UsageError(f"{name} must be at least {least}, got {_shown(value)}")
    if most is not None and value > most:
        raise UsageError(f"{name} must be at most {most}, got {_shown(value)}")
    return value


def _json(text: str, flag: str):
    """The JSON value of a flag's text; nesting too deep for the reader is
    a UsageError that names the flag."""
    import json

    try:
        return json.loads(text)
    except RecursionError:
        raise UsageError(f"{flag} nests JSON too deeply to read") from None
    except ValueError as exc:
        raise _named(exc, flag) from None


def _parse_poly(text) -> DensePolynomial:
    """Ascending coefficients, comma separated or a JSON-style list."""
    try:
        if not isinstance(text, str):
            return DensePolynomial.from_json(_exact(text, "coefficients"))
        text = text.strip()
        if not text:
            return DensePolynomial.zero()
        if text.startswith("["):
            return DensePolynomial.from_json(_exact(_json(text, "--Q"), "coefficients"))
        return DensePolynomial(
            GaussianRational.from_string(part) for part in text.split(",")
        )
    except ValueError as exc:
        raise _named(exc, "--Q") from None


def _parse_p(value) -> FactoredPolynomial:
    try:
        if isinstance(value, str):
            P = parse_factored(value)
        elif isinstance(value, (list, tuple)):
            for pair in value:
                if len(_exact(pair, "a root of P and its multiplicity")) != 2:
                    raise UsageError(f"cannot read a root of P from {_shown(pair)}")
            P = FactoredPolynomial.from_json(value)
        else:
            raise UsageError(f"cannot read P from {_shown(value)}")
    except ValueError as exc:
        raise _named(exc, "--P") from None
    if P.degree > MAX_DEGREE:
        raise UsageError(
            f"--P has degree {P.degree}; its degree must be at most {MAX_DEGREE}"
        )
    walk = _roots_by_coset(P)  # (coset, k, ((root, offset), ...) by offset)
    span = max((max(r[-1][1], 0) - min(r[0][1], 0) for _, _, r in walk), default=0)
    if span > MAX_COSET_SPAN:
        raise UsageError(
            f"--P has a coset span of {span}; the roots of one coset and its "
            f"representative must span at most {MAX_COSET_SPAN}"
        )
    return P


def _parse_scalar(value, flag: str) -> GaussianRational:
    if isinstance(value, str):
        try:
            return GaussianRational.from_string(value)
        except ValueError as exc:
            raise _named(exc, flag) from None
    if isinstance(value, int) and not isinstance(value, bool):
        return GaussianRational(value)
    raise UsageError(f"{flag}: cannot read a scalar from {_shown(value)}")


def _need(params: dict, *names):
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise UsageError(f"missing required parameter(s): {', '.join(missing)}")
    return [params[n] for n in names]


def _spec_from_params(params: dict) -> TraceSpec:
    p_raw, t_raw, q_raw = _need(params, "P", "t", "Q")
    return TraceSpec(_parse_p(p_raw), _parse_scalar(t_raw, "--t"), _parse_poly(q_raw))


def _cmd_dims(params: dict) -> dict:
    p_raw, t_raw = _need(params, "P", "t")
    P = _parse_p(p_raw)
    t = _parse_scalar(t_raw, "--t")
    total, _ = delta_invariant(P)
    # the degenerate subspace has dimension delta(P) for every t != 0
    # (degenerate_basis proves it); trace_dim refuses t = 0
    return {"dimC": trace_dim(P, t), "dimD": total, "delta": total}


def _cmd_moments(params: dict) -> dict:
    spec = _spec_from_params(params)
    (n,) = _need(params, "n")
    return {"moments": spec.moments(_int(n, "n", 0, MAX_ORDER)).to_json()}


def _cmd_check_degenerate(params: dict) -> dict:
    return delta_criterion(_spec_from_params(params)).to_json()


def _cmd_degenerate_basis(params: dict) -> dict:
    p_raw, t_raw = _need(params, "P", "t")
    P = _parse_p(p_raw)
    t = _parse_scalar(t_raw, "--t")
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
        raise UsageError(
            f"mode must be pole-order, two-root or both, got {_shown(mode)}"
        )
    out = {}
    if mode in ("pole-order", "both"):
        out["poleOrder"] = [
            {"k": k, **component.to_json()}
            for k, component in decompose_pole_order(spec)
        ]
    if mode in ("two-root", "both"):
        # None for a nondegenerate trace, which "two-root" refuses
        split = decompose_two_root(spec, strict=mode == "two-root")
        out["twoRoot"] = None if split is None else [part.to_json() for _, part in split]
    return out


def _cmd_pade(params: dict) -> dict:
    spec = _spec_from_params(params)
    (n,) = _need(params, "n")
    n = _int(n, "n", 0, MAX_PADE_ORDER)
    approx = pade_approximant(spec.moments(max(2 * n - 1, 0)), n)
    return approx.to_json()


def _cmd_profile(params: dict) -> dict:
    spec = _spec_from_params(params)
    (n_max,) = _need(params, "nmax")
    n_max = _int(n_max, "nmax", 1, MAX_PADE_ORDER)
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
    t = _parse_scalar(t_raw, "--t")
    a = _parse_scalar(a_raw, "--a")
    order = _int(params.get("order", 10), "order", 0, MAX_ORDER)
    if kind == "string":
        j_raw, lam_raw = _need(params, "j", "lambda")
        j = _int(j_raw, "j", 1, MAX_MODULE_DIM)
        rep = build_string_module(P, a, j, _parse_scalar(lam_raw, "--lambda"), t)
    else:
        n_raw, k_raw, c_raw = _need(params, "blocks", "k", "C")
        blocks = _int(n_raw, "blocks", 1, MAX_MODULE_DIM)
        k = _int(k_raw, "k", 1, MAX_MODULE_DIM)
        if blocks * k > MAX_MODULE_DIM:
            raise UsageError(
                f"blocks * k, the module dimension, must be at most "
                f"{MAX_MODULE_DIM}, got {blocks} * {k} = {blocks * k}"
            )
        rep = build_jordan_module(P, a, blocks, k, _parse_scalar(c_raw, "--C"), t)
    moments = module_trace(rep, P, order)
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
        f"{MAX_SAMPLE_COORDINATE}, got {_shown(value)}"
    )


def _samples(raw) -> list[complex]:
    """A JSON list of [re, im] pairs of sample coordinates."""
    if not isinstance(raw, (list, tuple)):
        raise UsageError(f"samples must be a list of [re, im] pairs, got {_shown(raw)}")
    if len(raw) > MAX_SAMPLES:
        raise UsageError(
            f"--samples holds {len(raw)} samples; it may hold at most {MAX_SAMPLES}"
        )
    out = []
    for pair in raw:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise UsageError(f"a sample must be an [re, im] pair, got {_shown(pair)}")
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
            raw_samples = _json(raw_samples, "--samples")
        samples = _samples(raw_samples)
    worst, detail = verify_lerch_recursion(spec, samples)
    return {
        "maxResidual": worst,
        "samples": [
            {"x": [x.real, x.imag], "residual": r} for x, r in detail
        ],
    }


def _cmd_selftest(params: dict) -> dict:
    from .selftest import run_selftest

    seed = _int(params.get("seed", 7), "seed")
    return run_selftest(seed)


# each subcommand's handler and flags; every subcommand also takes --json
_COMMANDS = {
    "dims": (_cmd_dims, ("P", "t")),
    "moments": (_cmd_moments, ("P", "t", "Q", "n")),
    "check-degenerate": (_cmd_check_degenerate, ("P", "t", "Q")),
    "degenerate-basis": (_cmd_degenerate_basis, ("P", "t")),
    "reconstruct": (_cmd_reconstruct, ("P", "t", "Q")),
    "decompose": (_cmd_decompose, ("P", "t", "Q", "mode")),
    "pade": (_cmd_pade, ("P", "t", "Q", "n")),
    "profile": (_cmd_profile, ("P", "t", "Q", "nmax")),
    "findim": (
        _cmd_findim,
        ("P", "t", "a", "C", "kind", "j", "blocks", "k", "order", "lambda"),
    ),
    "lerch-check": (_cmd_lerch_check, ("P", "t", "Q", "samples")),
    "selftest": (_cmd_selftest, ("seed",)),
}


def _command(name):
    """The (handler, flags) pair of a subcommand name, else UsageError."""
    if not isinstance(name, str) or name not in _COMMANDS:
        raise UsageError(
            f"unknown subcommand {_shown(name)}, expected one of {', '.join(_COMMANDS)}"
        )
    return _COMMANDS[name]


def _request(argv) -> tuple:
    """The (subcommand, params) pair of a command line, read from the file
    or stdin that --json names if it is given."""
    if not argv:
        raise UsageError("missing subcommand; kleintrace --help lists them")
    subcommand, tokens = argv[0], iter(argv[1:])
    allowed = (*_command(subcommand)[1], "json")
    params = {}
    for token in tokens:
        name, eq, value = token[2:].partition("=")
        if not token.startswith("--") or name not in allowed:
            raise UsageError(
                f"{subcommand} takes --{', --'.join(allowed)}, got {_shown(token)}"
            )
        if name in params:
            raise UsageError(f"--{name} is given twice")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"--{name} needs a value")
        params[name] = value
    if "json" not in params:
        return subcommand, params
    if len(params) > 1:
        raise UsageError("--json must be the only flag")
    if params["json"] == "-":
        payload = _json(sys.stdin.read(), "--json")
    else:
        with open(params["json"], "r", encoding="utf-8") as fh:
            payload = _json(fh.read(), "--json")
    params = payload.get("params", {}) if isinstance(payload, dict) else None
    if not isinstance(params, dict):
        raise UsageError("a --json request and its params must be JSON objects")
    params = dict(params)
    if "seed" in payload:
        params.setdefault("seed", payload["seed"])
    return payload.get("subcommand", subcommand), params


_INF = float("inf")


def _dumps(doc, pad: str = "\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` for a document of
    dicts with str keys, lists, tuples, str, int, float, bool and None,
    written directly: the stdlib takes its C encoder only without
    ``indent``.  ``pad`` is a newline and the indent of doc's own line."""
    if isinstance(doc, str):
        return _quoted(doc)
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in doc]) + pad + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        inner = pad + "  "
        items = [f"{_quoted(key)}: {_dumps(doc[key], inner)}" for key in sorted(doc)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    if isinstance(doc, float):
        if doc != doc:
            return "NaN"
        if doc == _INF:
            return "Infinity"
        if doc == -_INF:
            return "-Infinity"
        return float.__repr__(doc)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def _print(doc) -> None:
    print(_dumps(doc))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv == ["--version"]:
        print(__version__)
        return 0
    if argv == ["--help"]:
        _print({name: [*flags, "json"] for name, (_, flags) in _COMMANDS.items()})
        return 0
    try:
        subcommand, params = _request(argv)
        result = _command(subcommand)[0](params)
    except (ValueError, KeyError, OSError) as exc:
        # str(int) past Python's digit limit; int(str) says "conversion: value"
        if "integer string conversion;" in str(exc):
            exc = UsageError(
                "the answer has an integer too long to print (more than "
                f"{sys.get_int_max_str_digits()} digits); lower --n, --t, --Q or --P"
            )
        _print({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2
    _print(result)
    if subcommand == "selftest" and result.get("failed"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
