"""Write golden.json: input hashes and the digests of every exact output.

    python3 kleinbench/freeze.py

Run it only to record a deliberate change of traffic or of output format;
the benchmark counts every later mismatch as a failed operation.  Freezing
refuses outputs that fail the checks that need no digest.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

RECORDED_SEEDS = range(64)


def freeze_cli():
    digests = {}
    for req in gen.cli_pool():
        if req["cls"] != "exact":
            continue
        code, out = workloads.cli_call(req)
        if code != 0:
            raise SystemExit(f"exact request failed: {req['argv']} -> {code}")
        digests[gen.request_key(req["argv"], req["stdin"])] = workloads.output_digest(code, out)
    return digests


def freeze_deep():
    digests = {}
    for data in gen.deep_pool():
        result = workloads.deep_analysis(data)
        if not (result["oraclesAgree"] and result["roundTrip"]):
            raise SystemExit(f"moment-deep self-check failed on {data}")
        digests[workloads.spec_key(data)] = workloads.deep_digest(result)
    return digests


def main():
    inputs = {
        w: {str(s): gen.digest(gen.traffic(w, s)) for s in RECORDED_SEEDS}
        for w in gen.WORKLOADS
    }
    golden = {"inputs": inputs, "cli": freeze_cli(), "deep": freeze_deep()}
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
