"""The benchmark's cli-catalog traffic, replayed once in process against the
frozen golden transcript: every exact response must be byte-identical, and
every request must get the exit code and document its class promises.

Reads ``kleinbench/gen.py``, ``kleinbench/workloads.py`` and
``kleinbench/golden.json`` and changes none of them.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "kleinbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from kleintrace import cli  # noqa: E402


def _str_keys_only(doc) -> bool:
    if isinstance(doc, dict):
        return all(isinstance(k, str) and _str_keys_only(v) for k, v in doc.items())
    if isinstance(doc, (list, tuple)):
        return all(map(_str_keys_only, doc))
    return True


def _printed_documents(monkeypatch) -> list:
    """Every document ``cli._print`` is handed from now on, still printed."""
    docs = []
    printed = cli._print

    def recorded(doc):
        docs.append(doc)
        printed(doc)

    monkeypatch.setattr(cli, "_print", recorded)
    return docs


def test_cli_catalog_replays_the_golden_transcript(monkeypatch):
    golden = run.load_golden()
    traffic = gen.traffic("cli-catalog", run.REFERENCE_SEED)
    run.check_inputs("cli-catalog", run.REFERENCE_SEED, traffic, golden)
    section = golden[workloads.GOLDEN_SECTION["cli-catalog"]]
    docs = _printed_documents(monkeypatch)
    failed = [
        op.label for op in workloads.cli_ops(traffic, section) if not op.check(op.run())
    ]
    assert failed == []
    # one document per request, every handler's and every error object's
    # keyed by strings alone, which is all the emitter writes
    assert len(docs) == len(traffic)
    assert {req["argv"][0] for req in traffic} >= set(cli._COMMANDS) - {"selftest"}
    assert all(map(_str_keys_only, docs))


def test_help_and_selftest_documents_have_str_keys(monkeypatch, capsys):
    docs = _printed_documents(monkeypatch)
    assert cli.main(["--help"]) == 0
    assert cli.main(["selftest", "--seed=7"]) == 0
    capsys.readouterr()
    assert len(docs) == 2
    assert all(map(_str_keys_only, docs))
