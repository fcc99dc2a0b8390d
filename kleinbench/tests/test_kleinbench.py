"""Tests of the benchmark's own code.

    python3 -m pytest kleinbench/tests -q
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import gen  # noqa: E402
import kleintrace as kt  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from kleintrace.catalog import CATALOG_P, CATALOG_T  # noqa: E402


def golden():
    with open(run.GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 7]; a has child g [2, 3]
    spans_ = [
        ("root", 0.0, 10.0, -1, 1, None),
        ("a", 1.0, 4.0, 0, 1, None),
        ("g", 2.0, 3.0, 1, 1, None),
        ("b", 5.0, 7.0, 0, 1, None),
    ]
    assert spans.self_times(spans_) == [5.0, 2.0, 1.0, 2.0]


def test_tracer_records_nesting_and_restores_originals():
    original = kt.delta_criterion
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert kt.delta_criterion is not original
        assert kt.degeneracy.delta_criterion is kt.delta_criterion
        tracer.op = 7
        spec = kt.TraceSpec(kt.parse_factored("x(x-1)"), kt.GaussianRational(2), kt.DensePolynomial([-1, -1]))
        assert kt.delta_criterion(spec).degenerate
    finally:
        tracer.uninstall()
    assert kt.delta_criterion is original
    names = [s[0] for s in tracer.spans]
    outer = names.index("degeneracy.delta_criterion")
    inner = names.index("exactkernel.partial_fractions")
    assert tracer.spans[inner][3] == outer
    assert all(s[4] == 7 for s in tracer.spans)
    assert tracer.counts["exactkernel.scalar_div"] > 0
    own = spans.self_times(tracer.spans)
    assert all(x >= 0 for x in own)
    assert own[outer] < tracer.spans[outer][2] - tracer.spans[outer][1]


# -- percentiles and the sample-count rule ----------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile([4.0], 0.9) == 4.0


def test_tail_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.tail_reportable(100, 0.9)
    assert not stats.tail_reportable(99, 0.9)
    assert stats.samples_beyond(1000, 0.99) == 10


# -- generator ----------------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    for workload in gen.WORKLOADS:
        first = gen.digest(gen.traffic(workload, 7))
        assert first == gen.digest(gen.traffic(workload, 7))
        assert first != gen.digest(gen.traffic(workload, 8))


def test_generated_inputs_match_recorded_hashes():
    recorded = golden()["inputs"]
    for workload in gen.WORKLOADS:
        for seed in (0, 1, 63):
            assert gen.digest(gen.traffic(workload, seed)) == recorded[workload][str(seed)]


def test_generator_catalog_matches_package_catalog():
    assert [name for name, _ in gen.CATALOG_P] == [name for name, _ in CATALOG_P]
    for (_, roots), (_, poly) in zip(gen.CATALOG_P, CATALOG_P):
        assert kt.FactoredPolynomial(roots) == poly
    for (name, (re, im)), (_, t) in zip(gen.CATALOG_T, CATALOG_T):
        assert kt.GaussianRational.from_string(name) == t == kt.GaussianRational(re, im)


def test_two_root_formula_gives_degenerate_traces():
    rng = random.Random(5)
    for pname, roots in gen.CATALOG_P:
        for _, t in gen.CATALOG_T:
            q = gen.two_root_q(rng, roots, t)
            if q is None:
                assert not gen.integer_pairs(roots)
                continue
            spec = kt.TraceSpec(
                kt.parse_factored(pname), kt.GaussianRational(*t), kt.DensePolynomial.from_json([gen.cstr(c) for c in q])
            )
            assert kt.delta_criterion(spec).degenerate


# -- output checks ------------------------------------------------------------------------


def _flip(text: str) -> str:
    i = len(text) // 2
    return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1 :]


def test_flipped_output_byte_is_a_failed_operation():
    section = golden()["cli"]
    req = next(r for r in gen.traffic("cli-catalog", 3) if r["cls"] == "exact" and r["argv"][0] == "profile")
    code, out = workloads.cli_call(req)
    assert workloads.check_cli(req, (code, out), section)
    assert not workloads.check_cli(req, (code, _flip(out)), section)

    tally = run.Tally()
    check = lambda r: workloads.check_cli(req, r, section)  # noqa: E731
    tally.run_pass([workloads.Op("as is", lambda: (code, out), check),
                    workloads.Op("flipped", lambda: (code, _flip(out)), check)])
    assert (tally.attempted, tally.failed, tally.unexpected) == (2, 1, ["flipped"])


def test_changed_moment_deep_verdict_is_a_failed_operation():
    section = golden()["deep"]
    data = gen.traffic("moment-deep", 3)[0]
    result = workloads.deep_analysis(data)
    assert workloads.check_deep(data, result, section)
    assert not workloads.check_deep(data, {**result, "hankelRank": result["hankelRank"] + 1}, section)


def test_request_classes_check_exit_codes():
    error = {"cls": "error", "argv": ["dims", "--P=x", "--t=0"], "stdin": None}
    assert workloads.check_cli(error, workloads.cli_call(error), {})
    assert not workloads.check_cli(error, (0, "{}"), {})
    lerch = {"cls": "lerch", "argv": ["lerch-check", "--P=x(x-1)", "--t=1/3", "--Q=1,2"], "stdin": None}
    assert workloads.check_cli(lerch, workloads.cli_call(lerch), {})
    assert not workloads.check_cli(lerch, (0, json.dumps({"maxResidual": 1.0})), {})


def test_traced_metrics_are_the_declared_per_layer_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    measured = spans.layer_metrics(spans.Tracer(), 1.0, 1.0)
    assert {name: unit for name, (_, unit) in measured.items()} == declared
