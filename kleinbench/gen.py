"""Seeded input generator for the kleintrace benchmark.

Everything here is plain data: strings for scalars and polynomials, lists
for elements.  The generator does its own exact arithmetic on
(Fraction, Fraction) pairs so that the traffic does not depend on the code
under test.  Degenerate coordinate polynomials come from the two-root formula

    Q = c * (P/(x-a)^k - t^j * P/(x-b)^k),   b = a + j,

which is the pullback to P of the degenerate two-root trace on
(x-a)^k (x-b)^k.

Each workload's inputs are a pool built from a fixed pool seed, so that the
cli-catalog and moment-deep outputs can be frozen as digests.  Every pass
sends the whole pool and the workload seed sets the order: runs with
different seeds then measure the same work, and their spread is the
machine's, not the sample's.  trace-identity checks an identity and needs
no frozen output, but takes the same approach for the same reason.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

# The built-in sweep catalog: (name, [(root, multiplicity)]) and t values.
CATALOG_P = (
    ("x", ((0, 1),)),
    ("x^2", ((0, 2),)),
    ("x(x-1)", ((0, 1), (1, 1))),
    ("x(x-1/3)", ((0, 1), (Fraction(1, 3), 1))),
    ("x(x-1)(x-2)", ((0, 1), (1, 1), (2, 1))),
    ("x^2(x-1)^2", ((0, 2), (1, 2))),
    ("x(x-1)(x-5/2)", ((0, 1), (1, 1), (Fraction(5, 2), 1))),
    ("(x+1/2)^2(x-3/2)^2", ((Fraction(-1, 2), 2), (Fraction(3, 2), 2))),
    ("x(x-2)", ((0, 1), (2, 1))),
)
CATALOG_T = (
    ("2", (Fraction(2), Fraction(0))),
    ("1", (Fraction(1), Fraction(0))),
    ("-1", (Fraction(-1), Fraction(0))),
    ("i", (Fraction(0), Fraction(1))),
    ("1/3", (Fraction(1, 3), Fraction(0))),
)

POOL_SEED = "kleinbench-pool-1"
CLI_VARIANTS = 2
DEEP_VARIANTS = 3
DEEP_MOMENTS = 40
IDENTITY_PAIRS = 12
IDENTITY_MONOMIALS = 8

ONE = (Fraction(1), Fraction(0))
ZERO = (Fraction(0), Fraction(0))


# -- exact Q(i) arithmetic on pairs -------------------------------------------


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def cpow(a, n):
    out = ONE
    for _ in range(n):
        out = cmul(out, a)
    return out


def cstr(a) -> str:
    """Scalar in the CLI's exact format, e.g. '-3/2+0/1i'."""
    re, im = a
    sign = "-" if im < 0 else "+"
    mag = abs(im)
    return f"{re.numerator}/{re.denominator}{sign}{mag.numerator}/{mag.denominator}i"


def pmul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = cadd(out[i + j], cmul(a, b))
    return out


def expand_roots(roots):
    """Ascending coefficients of prod (x - r)^m over [(r, m)], r rational."""
    out = [ONE]
    for r, m in roots:
        for _ in range(m):
            out = pmul(out, [(-Fraction(r), Fraction(0)), ONE])
    return out


def quotient(roots, a, k):
    """Coefficients of P/(x-a)^k."""
    return expand_roots([(r, m - k if r == a else m) for r, m in roots])


def trim(p):
    p = list(p)
    while p and p[-1] == ZERO:
        p.pop()
    return p


def qstr(coeffs) -> str:
    return ",".join(cstr(c) for c in trim(coeffs))


# -- random inputs -------------------------------------------------------------


def rand_scalar(rng: random.Random, nonzero=False):
    while True:
        re = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        im = Fraction(rng.randint(-2, 2), rng.choice((1, 2))) if rng.random() < 0.25 else Fraction(0)
        if re or im or not nonzero:
            return (re, im)


def degree(roots) -> int:
    return sum(m for _, m in roots)


def q_bound(roots, t) -> int:
    return degree(roots) - (2 if t == ONE else 1)


def random_q(rng, roots, t):
    """A random coordinate polynomial with nonzero top coefficient."""
    bound = q_bound(roots, t)
    if bound < 0:
        return []
    return [rand_scalar(rng) for _ in range(bound)] + [rand_scalar(rng, nonzero=True)]


def integer_pairs(roots):
    """(a, b, j, kmax) for roots b = a + j, j a positive integer."""
    out = []
    for a, ma in roots:
        for b, mb in roots:
            diff = Fraction(b) - Fraction(a)
            if diff > 0 and diff.denominator == 1:
                out.append((a, b, int(diff), min(ma, mb)))
    return out


def two_root_q(rng, roots, t):
    """A nonzero degenerate Q: a sum of one or two pulled-back two-root
    traces.  None when P has no two roots at integer distance."""
    pairs = integer_pairs(roots)
    if not pairs:
        return None
    while True:
        total = [ZERO] * degree(roots)
        for _ in range(rng.choice((1, 1, 2))):
            a, b, j, kmax = rng.choice(pairs)
            k = rng.randint(1, kmax)
            c = rand_scalar(rng, nonzero=True)
            tj = cpow(t, j)
            left = quotient(roots, a, k)
            right = quotient(roots, b, k)
            for i in range(len(left)):
                total[i] = cadd(total[i], cmul(c, csub(left[i], cmul(tj, right[i]))))
        total = trim(total)
        if total:
            return total


def random_element(rng, max_wind=2, max_deg=2):
    """{winding: [coefficient strings]} with random polynomial components."""
    comps = {}
    for k in range(-max_wind, max_wind + 1):
        if rng.random() < 0.5:
            coeffs = trim(rand_scalar(rng) for _ in range(rng.randint(0, max_deg + 1)))
            if coeffs:
                comps[str(k)] = [cstr(c) for c in coeffs]
    return comps


def digest(obj) -> str:
    """sha256 of the canonical JSON form of generated inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def request_key(argv, stdin=None) -> str:
    return digest([argv, stdin])[:16]


# -- cli-catalog -----------------------------------------------------------------


def _req(cls, argv, stdin=None):
    return {"cls": cls, "argv": argv, "stdin": stdin}


def _cell_requests(rng, pname, roots, tname, t):
    """One request per exact subcommand for one (P, t) cell."""
    P, T = f"--P={pname}", f"--t={tname}"
    q_rand = qstr(random_q(rng, roots, t))
    q_deg = two_root_q(rng, roots, t)
    q_deg = qstr(q_deg) if q_deg else None
    either = q_deg if q_deg and rng.random() < 0.5 else q_rand
    out = [
        _req("exact", ["dims", P, T]),
        _req("exact", ["degenerate-basis", P, T]),
        _req("exact", ["moments", P, T, f"--Q={q_rand}", f"--n={rng.randint(4, 10)}"]),
        _req("exact", ["check-degenerate", P, T, f"--Q={either}"]),
        _req("exact", ["decompose", P, T, f"--Q={either}"]),
        _req("exact", ["pade", P, T, f"--Q={q_rand}", f"--n={rng.randint(2, 4)}"]),
        _req("exact", ["profile", P, T, f"--Q={q_rand}", f"--nmax={rng.randint(2, 3)}"]),
    ]
    if q_deg:
        out.append(_req("exact", ["reconstruct", P, T, f"--Q={q_deg}"]))
    pairs = integer_pairs(roots)
    if pairs:
        a, b, j, kmax = rng.choice(pairs)
        order = f"--order={rng.randint(6, 10)}"
        lam = cstr(rand_scalar(rng, nonzero=True))
        out.append(_req("exact", [
            "findim", P, T, "--kind=string", f"--a={cstr((Fraction(a), Fraction(0)))}",
            f"--j={j}", f"--lambda={lam}", order,
        ]))
        C = cstr(rand_scalar(rng, nonzero=True))
        out.append(_req("exact", [
            "findim", P, T, "--kind=jordan",
            f"--a={cstr((Fraction(a) + Fraction(1, 2), Fraction(0)))}",
            f"--blocks={j}", f"--k={rng.randint(1, kmax)}", f"--C={C}", order,
        ]))
    if tname in ("-1", "i", "1/3"):
        # |t| = 1 is inside lerch_phi's documented domain but fails today
        cls = "lerch" if tname == "1/3" else "defect"
        out.append(_req(cls, ["lerch-check", P, T, f"--Q={q_rand}"]))
    return out


def _error_requests():
    """Bad input that must exit 2 with an error object, and known defects."""
    nondeg = "--Q=1/1+0/1i,2/1+0/1i"
    errors = [
        _req("error", ["reconstruct", "--P=x(x-1/3)", "--t=2", nondeg]),
        _req("error", ["moments", "--P=x(x-1)", "--t=2", nondeg]),
        _req("error", ["dims", "--P=y(x-1)", "--t=2"]),
        _req("error", ["dims", "--P=x(x-1)", "--t=0"]),
        _req("error", ["check-degenerate", "--P=x(x-1)", "--t=2", "--Q=1,2,3"]),
        _req("error", ["decompose", "--P=x(x-1/3)", "--t=2", nondeg, "--mode=two-root"]),
        _req("error", ["decompose", "--P=x(x-1)", "--t=2", nondeg, "--mode=sideways"]),
        _req("error", ["profile", "--P=x(x-1)", "--t=2", nondeg, "--nmax=0"]),
        _req("error", ["findim", "--P=x(x-1)", "--t=2", "--kind=string", "--a=1/2", "--j=1", "--lambda=1"]),
        _req("error", ["lerch-check", "--P=x(x-1)", "--t=2", nondeg]),
        _req("error", ["lerch-check", "--P=x(x-1)(x-2)", "--t=1", nondeg]),
    ]
    float_q = {"subcommand": "moments", "params": {"P": "x(x-1)", "t": "2", "Q": [1.5, 2], "n": 3}}
    defects = [
        _req("defect", ["moments", "--json=-"], json.dumps(float_q)),
        _req("defect", ["moments", "--P=x(x-1)", "--t=2", "--Q=1/0", "--n=3"]),
        _req("defect", ["findim", "--P=x(x-1)", "--t=0", "--kind=string", "--a=0", "--j=1", "--lambda=1"]),
        _req("defect", ["lerch-check", "--P=x^2", "--t=-1", "--Q=1", "--samples=[[2.5, 0.3]]"]),
    ]
    return errors + defects


def cli_pool():
    """Every cli-catalog request: CLI_VARIANTS per cell, then the bad input."""
    rng = random.Random(POOL_SEED + "/cli")
    reqs = []
    for pname, roots in CATALOG_P:
        for tname, t in CATALOG_T:
            for _ in range(CLI_VARIANTS):
                reqs += _cell_requests(rng, pname, roots, tname, t)
    return reqs + _error_requests()


# -- moment-deep -------------------------------------------------------------------


def deep_pool():
    """Specs on the catalog P of degree >= 3 with all five t values; the first
    variant of each cell is degenerate by construction."""
    rng = random.Random(POOL_SEED + "/deep")
    specs = []
    for pname, roots in CATALOG_P:
        if degree(roots) < 3:
            continue
        for tname, t in CATALOG_T:
            for v in range(DEEP_VARIANTS):
                q = two_root_q(rng, roots, t) if v == 0 else random_q(rng, roots, t)
                specs.append({"P": pname, "t": tname, "Q": [cstr(c) for c in q]})
    return specs


# -- trace-identity ----------------------------------------------------------------


def identity_pool():
    """Per catalog cell: one trace, random element pairs, monomial degrees."""
    rng = random.Random(POOL_SEED + "/identity")
    cells = []
    for pname, roots in CATALOG_P:
        for tname, t in CATALOG_T:
            cells.append({
                "P": pname,
                "t": tname,
                "Q": [cstr(c) for c in random_q(rng, roots, t)],
                "pairs": [[random_element(rng), random_element(rng)] for _ in range(IDENTITY_PAIRS)],
                "monomials": list(range(IDENTITY_MONOMIALS + 1)),
            })
    return cells


WORKLOADS = ("cli-catalog", "moment-deep", "trace-identity")


def traffic(workload, seed):
    """The inputs of one pass: the workload's pool in an order set by the seed.

    trace-identity keeps each cell's operations together, with the monomial
    degrees rising, so that one trace's moment cache grows step by step.
    """
    pools = {"cli-catalog": cli_pool, "moment-deep": deep_pool, "trace-identity": identity_pool}
    if workload not in pools:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"kleinbench/{workload}/{seed}")
    out = pools[workload]()
    rng.shuffle(out)
    if workload == "trace-identity":
        for cell in out:
            rng.shuffle(cell["pairs"])
    return out
