"""The five result records: immutable, compared by value, serialized unchanged.

Each record is built from a small real case. The ``to_json`` literals (and
the ``MorphismSpec`` repr, as it has no ``to_json``) were recorded when the
records were still frozen dataclasses, so a change of record type that
altered any output would show here.
"""

import pytest

from kleintrace import (
    MorphismSpec,
    TraceSpec,
    TruncatedSeries,
    build_string_module,
    delta_criterion,
    pade_approximant,
    pole_bounds,
)

from conftest import fp, gr, poly


GEOMETRIC = TruncatedSeries([1, gr("1/2"), gr("1/4"), gr("1/8")])

# name: (build, a field read by name, its value, hashable, to_json or repr)
CASES = {
    "pole_bounds": (
        lambda: pole_bounds(fp(0, 1, 2)),
        "total", 2, False,
        {"bounds": {"1/2+0/1i": 1, "3/2+0/1i": 1}, "total": 2},
    ),
    "delta_criterion": (
        lambda: delta_criterion(TraceSpec(fp(0, 1), gr(2), poly(1))),
        "degenerate", False, False,
        {
            "degenerate": False,
            "deltas": {"0/1/0/1:1": "-1/2+0/1i"},
            "perCosetDelta": {"0/1/0/1": 1},
            "deltaTotal": 1,
        },
    ),
    "pade_approximant": (
        lambda: pade_approximant(GEOMETRIC, 1),
        "S", poly("-1/2", 1), True,
        {"n": 1, "S": ["-1/2+0/1i", "1/1+0/1i"], "R": ["1/1+0/1i"]},
    ),
    "morphism_spec": (
        lambda: MorphismSpec.gt(2),
        "t", gr(2), True,
        "MorphismSpec(kind='gt', t=GaussianRational('2/1+0/1i'), r=None, q1=None, q2=None)",
    ),
    "string_module": (
        lambda: build_string_module(fp(0, 2), gr(0), 2, gr(1), gr(3)),
        "dim", 2, True,
        {
            "dim": 2,
            "U": ["0/1+0/1i", "0/1+0/1i", "1/1+0/1i", "0/1+0/1i"],
            "V": ["0/1+0/1i", "-1/1+0/1i", "0/1+0/1i", "0/1+0/1i"],
            "Z": ["1/2+0/1i", "0/1+0/1i", "0/1+0/1i", "3/2+0/1i"],
            "alpha": ["1/1+0/1i", "0/1+0/1i", "0/1+0/1i", "3/1+0/1i"],
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_fields_immutability_equality_and_output(name):
    build, field, value, hashable, dumped = CASES[name]
    rec = build()
    assert getattr(rec, field) == value
    with pytest.raises(AttributeError):
        setattr(rec, field, value)
    again = build()
    assert rec == again
    if hashable:
        assert hash(rec) == hash(again)
    else:
        # these hold dicts, so they cannot be hashed
        with pytest.raises(TypeError):
            hash(rec)
    if isinstance(dumped, str):
        assert repr(rec) == dumped
    else:
        assert rec.to_json() == dumped
