"""Every committed BENCH_<n>.json carries the median and quartiles of each
end-to-end metric that BENCHMARK.json declares, per workload, seed and side
(parent and change)."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_bench_files_carry_every_workload_and_metric():
    spec = _load(ROOT / "BENCHMARK.json")
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    paths = sorted(ROOT.glob("BENCH_*.json"))
    missing = [] if paths else ["no BENCH_*.json"]
    for path in paths:
        series = _load(path)["series"]
        for name in workloads:
            runs = [s for s in series if s["workload"] == name]
            missing += [] if runs else [f"{path.name}: {name}"]
            missing += [
                f"{path.name}: {name} seed {s['seed']} {side} {metric}"
                for s in runs for side in ("parent", "change")
                for metric in metrics
                if not all(isinstance(s[side].get(metric, {}).get(k),
                                      (int, float))
                           for k in ("median", "q1", "q3"))]
    assert missing == []
