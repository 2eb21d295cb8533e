"""Alternated parent/change pairs of perfbench runs, summarized as a
BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent REV --workdir DIR
        --seeds 7 23 [--note TEXT] --out BENCH_N.json

Each side is a checkout holding only src/ and perfbench/: the parent
extracted with `git archive` from REV, the change copied from the working
tree.  Pair k of PAIRS (10) runs both sides once at BENCHMARK.json's
run_seconds, the parent first on odd k, for every workload and seed.
The bench number is read from the name of --out.  Every result line is
appended to DIR/runs.jsonl as it arrives.  The census counts are one
--trace 1 run per side at the first seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
CENSUS = ("quaternion.mul_per_op", "mat2h.matmul_per_op", "mat2h.chi_per_op")
CENSUS_WORKLOADS = ("closed_form", "solve", "identities")


def checkout(rev, dest: Path) -> None:
    """src/ and perfbench/ of rev (None: the working tree) under dest."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if rev is None:
        for name in ("src", "perfbench"):
            shutil.copytree(ROOT / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          ".work"))
        return
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src",
                              "perfbench"], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def run(side: Path, workload: str, seed: int, seconds: float,
        trace: int) -> tuple[dict, dict]:
    """The result line and the context line of one perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=side, capture_output=True, text=True, check=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    *_, context, result = proc.stdout.splitlines()
    return json.loads(result), json.loads(context)["context"]


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def side_summary(runs: list, metrics: list) -> dict:
    out = {name: quartiles([r["metrics"][name]["value"] for r, _c in runs])
           for name in metrics}
    out["host_slowdown"] = quartiles([c["host_slowdown"] for _r, c in runs])
    out["correct"] = all(r["correct"] for r, _c in runs)
    out["failed"] = sorted({r["failed"] for r, _c in runs})
    return out


def comparison(parent: dict, change: dict, spec: dict) -> dict:
    higher = spec["better"] == "higher"
    p, c = parent[spec["name"]], change[spec["name"]]
    wins = sum((b > a) if higher else (b < a)
               for a, b in zip(p["runs"], c["runs"]))
    ties = sum(a == b for a, b in zip(p["runs"], c["runs"]))
    shift = c["median"] - p["median"]
    bound = spec["bound"] * abs(p["median"])
    iqr = p["q3"] - p["q1"]
    return {"change_wins": wins, "ties": ties,
            "median_rel_change": shift / p["median"] if p["median"] else 0.0,
            "parent_iqr": iqr,
            "worse_beyond_bound": (-shift if higher else shift) > bound,
            "difference_within_parent_iqr": abs(shift) <= iqr}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--note", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    sides = {name: args.workdir / name for name in ("parent", "change")}
    checkout(args.parent, sides["parent"])
    checkout(None, sides["change"])
    log = (args.workdir / "runs.jsonl").open("a", encoding="utf-8")

    census = {}
    for workload in CENSUS_WORKLOADS:
        census[workload] = {}
        for name, path in sides.items():
            result, _context = run(path, workload, args.seeds[0], 1, 1)
            census[workload][name] = {k: result["metrics"][k]["value"]
                                      for k in CENSUS}

    series = []
    for workload in workloads:
        for seed in args.seeds:
            runs = {"parent": [], "change": []}
            for k in range(1, PAIRS + 1):
                order = ("parent", "change") if k % 2 else ("change", "parent")
                for name in order:
                    result, context = run(sides[name], workload, seed,
                                          seconds, 0)
                    runs[name].append((result, context))
                    log.write(json.dumps({"workload": workload, "seed": seed,
                                          "pair": k, "side": name,
                                          "result": result,
                                          "context": context}) + "\n")
                    log.flush()
            parent = side_summary(runs["parent"], metrics)
            change = side_summary(runs["change"], metrics)
            series.append({
                "workload": workload, "seed": seed, "pairs": PAIRS,
                "note": "each checkout held only src/ and perfbench/",
                "parent": parent, "change": change,
                "comparison": {m["name"]: comparison(parent, change, m)
                               for m in spec["end_to_end"]}})

    context = runs["parent"][0][1]
    doc = {
        "bench": int(args.out.stem.removeprefix("BENCH_")),
        "parent_commit": subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", args.parent], check=True,
            capture_output=True, text=True).stdout.strip(),
        "change": args.note,
        "host": {"python": context["python"], "numpy": context["numpy"],
                 "nproc": context["nproc"],
                 "host_slowdown": "per run in each series' host_slowdown, "
                                  "from the context line"},
        "method": (
            "Each pair runs the parent checkout and the change checkout once, "
            "each in its own directory, alternating which side runs first "
            "(parent first on odd pairs). Quartiles are statistics.quantiles("
            "n=4, method='inclusive') over the runs. change_wins counts pairs "
            "where the change is better; ties count for neither. "
            "worse_beyond_bound compares the change's median with the "
            "parent's against the bound in BENCHMARK.json; "
            "difference_within_parent_iqr is true where the medians differ "
            "by no more than the parent's interquartile range, so the "
            "difference is unresolved."),
        "commands": {
            "pairs": "python3 tools/bench_pairs.py " + shlex.join(
                {str(args.workdir): "<workdir>",
                 str(args.out): args.out.name}.get(a, a)
                for a in (sys.argv[1:] if argv is None else argv)),
            "untraced": "python3 perfbench/run.py --workload <workload> "
                        f"--seed <seed> --seconds {seconds} --trace 0",
            "traced": "python3 perfbench/run.py --workload <workload> "
                      f"--seed {args.seeds[0]} --seconds 1 --trace 1 "
                      "(census counts only)",
            "result": "the last line of stdout; the context line is the "
                      "line before it"},
        "counts": {"census_per_op": {
            "note": f"--trace 1 at seed {args.seeds[0]}, 1 s runs; census "
                    "counts of each side", **census}},
        "series": series,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
