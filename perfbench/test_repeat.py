"""The benchmark's own check: counts repeat exactly for a given seed.

    python3 -m pytest perfbench/test_repeat.py -q

Runs each in-process workload twice per mode on one seed and requires the
same attempted and failed counts, per-function call and failure counts,
and *_per_op work counts both times.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
EXACT_UNITS = ("count", "count/op")


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return result


@pytest.mark.parametrize("workload", ["closed_form", "solve", "identities"])
def test_counts_repeat_exactly(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    exact = {name: m["value"] for name, m in first["metrics"].items()
             if m["unit"] in EXACT_UNITS}
    assert any(name.endswith("_per_op") and value for name, value in exact.items())
    assert exact == {name: second["metrics"][name]["value"] for name in exact}


@pytest.mark.parametrize("workload", ["closed_form", "solve", "identities"])
def test_ok_frac_repeats_exactly(workload):
    first, second = _result(workload, 0), _result(workload, 0)
    assert first["metrics"]["ok_frac"] == second["metrics"]["ok_frac"]
    assert (first["attempted"], first["failed"]) \
        == (second["attempted"], second["failed"])
