"""Acceptance suite: one test per criterion, printing one line each.

Criteria 1-4 and 6-8 are property checks of the registry in
``kleintrace.selftest``, run here at full size on the seed
``"acceptance-N"``, so every run checks the identical sample set;
``kleintrace selftest`` runs the same functions at quick size.  The checks
with no criterion run at their quick size.  Criteria 5 and 9 have no
selftest twin and are plain tests.  All equality assertions are exact
(Gaussian-rational); the floating-point Lerch checks carry absolute
tolerances.
"""

import random

import pytest

from kleintrace import (
    GaussianRational,
    PrincipalParts,
    TraceSpec,
    TruncatedSeries,
    decompose_pole_order,
    decompose_two_root,
    degenerate_basis,
    delta_criterion,
    hankel_rank,
    is_n_degenerate,
    q_from_principal_parts,
    reconstruct_rational,
)
from kleintrace.catalog import CATALOG_T
from kleintrace.exactkernel import coset_key
from kleintrace.selftest import CHECKS

from conftest import fp, gr, poly

ONE = GaussianRational(1)

# criterion number -> registry check
CRITERIA = {
    1: "dimensions",
    2: "twisted-trace",
    3: "tri-oracle",
    4: "reconstruction",
    6: "modules",
    7: "pade-functional",
    8: "lerch",
}


def _run_full(check) -> str:
    """The check at its full size, on its full-size seed."""
    return check.fn(random.Random(check.full_seed), **check.full)


def _report(number: int, message: str):
    print(f"[criterion {number}] PASS - {message}")


def _criterion(number: int):
    check = CHECKS[CRITERIA[number]]
    assert check.full_seed == f"acceptance-{number}"
    _report(number, _run_full(check))


def test_criterion_1_dimension_formulas():
    _criterion(1)


def test_criterion_2_twisted_trace_identity():
    _criterion(2)


def test_criterion_3_tri_oracle_agreement():
    _criterion(3)


def test_criterion_4_reconstruction_round_trip():
    _criterion(4)


def test_criterion_5_worked_exact_values():
    P = fp(0, 1)
    degen = TraceSpec(P, gr(2), poly(-1, -1))
    numer, denom = reconstruct_rational(degen)
    assert numer == poly(1) and denom == poly("-1/2", 1)
    report = delta_criterion(degen)
    assert report.degenerate
    assert report.deltas[(coset_key(gr(0)), 1)] == gr(0)
    mu = degen.moments(30)
    assert mu == TruncatedSeries([gr("1/2") ** n for n in range(31)])

    other = TraceSpec(P, gr(2), poly(1))
    report2 = delta_criterion(other)
    assert not report2.degenerate
    assert report2.deltas[(coset_key(gr(0)), 1)] == gr("-1/2")
    mu2 = other.moments(5)
    assert mu2[0] == gr(0) and mu2[1] == gr(-1)
    assert is_n_degenerate(mu2, 0)
    assert not is_n_degenerate(mu2, 1)
    assert hankel_rank(mu2, 2) == 2
    _report(5, "both worked examples reproduce bit-exactly")


def test_criterion_6_module_traces():
    _criterion(6)


def test_criterion_7_pade_functional_bound():
    _criterion(7)


def test_criterion_8_lerch():
    _criterion(8)


def test_criterion_9_decompositions():
    # pole-order decomposition recombines on the double-double catalog entry
    P = fp((0, 2), (1, 2))
    for tname, t in CATALOG_T:
        parts = PrincipalParts({gr(0): [1, 1], gr(1): [-2, -(t * t)]})
        q = q_from_principal_parts(P, parts)
        if t == ONE and q.degree > P.degree - 2:
            q = q_from_principal_parts(
                P, PrincipalParts({gr(0): [1, 1], gr(1): [-1, -(t * t)]})
            )
        spec = TraceSpec(P, t, q)
        comps = decompose_pole_order(spec)
        total = None
        for k, comp in comps:
            m = comp.moments(40)
            total = m if total is None else total + m
        assert total == spec.moments(40)

    # two-root decomposition on the degenerate traces of x(x-1)(x-2)
    chain = fp(0, 1, 2)
    for tname, t in CATALOG_T:
        for spec in degenerate_basis(chain, t):
            pieces = decompose_two_root(spec)
            total = None
            for pair, comp in pieces:
                assert len(pair.roots) == 2
                assert pair.roots[0][1] == pair.roots[1][1]
                gap = pair.roots[1][0] - pair.roots[0][0]
                assert gap.im == 0 and gap.re.denominator == 1 and gap.re > 0
                m = comp.moments(40)
                total = m if total is None else total + m
            assert total is not None
            assert total == spec.moments(40)
    _report(9, "pole-order and two-root decompositions recombine exactly")


@pytest.mark.parametrize(
    "name", [name for name in CHECKS if name not in CRITERIA.values()]
)
def test_check_without_criterion(name):
    print(f"[{name}] PASS - {_run_full(CHECKS[name])}")
