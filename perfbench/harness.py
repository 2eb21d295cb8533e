"""Timing, tracing and reporting for the perfbench workloads.

Imported by run.py once src/ is on sys.path and numpy's thread count is
pinned, so quatu11 and numpy load from here at module level.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import timeit
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy

from quatu11 import Mat2H, Quaternion, random_element
from quatu11.errors import QuatU11Error
from reference import (PROCESS_REFERENCE_US, REFERENCE_US_PER_REP,
                       process_reference_seconds, reference_seconds)
from spans import FAILED, NAME, OP_ID, Tracer, counting, direct
from workloads import (CLASSES, OFF_GROUP, OK, REFUSED, WORKLOADS, WRONG,
                       cli_env)

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 7
SETUP_KERNEL_REPS = 50
PROBE_REPEATS = 5

FUNCTIONS = [
    "group.validate", "group.random_element", "invariants.report",
    "invariants.identity_checks", "moebius.classify", "moebius.apply",
    "spectra.right_spectrum", "spectra.right_spectrum_casewise",
    "spectra.right_spectrum_oracle", "spectra.left_eigenvalues",
    "diagonalize.diagonalize_elliptic",
]
CLI_COMMANDS = ["validate", "invariants", "classify", "spectrum_right",
                "spectrum_left", "apply", "diagonalize", "random"]


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, 0 <= q <= 1."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


class Tally:
    """Outcome counts of a series of passes and, per item, the outcomes it
    had and each run's time as a multiple of the reference's time around
    it."""

    def __init__(self, wl):
        self.quiet_us = wl.reference_quiet_us()
        self.ratios: list[list[float]] = [[] for _ in wl.items]
        self.best = [math.inf] * len(wl.items)
        self.kernel: list[float] = []
        self.status: Counter = Counter()
        self.outcomes: list[set[str]] = [set() for _ in wl.items]

    def item_us(self) -> list[float]:
        """Each item's median time, scaled to the quiet reference host."""
        return [statistics.median(r) * self.quiet_us for r in self.ratios]

    def ops_per_s(self) -> float:
        return len(self.ratios) * 1e6 / math.fsum(self.item_us())


def run_pass(wl, call, tracer, tally: Tally) -> None:
    """Run every item once.  The reference runs before the first item and
    then after every item, or only after the last one for a workload whose
    reference is a whole process (`cli`); each time is divided by the mean
    of the reference runs on either side of it."""
    before = wl.reference_seconds()
    elapsed_s = []
    for i, item in enumerate(wl.items):
        if tracer is not None:
            tracer.op_id += 1
        status = None
        start = perf_counter()
        try:
            out = call("op", wl.run, item, call)
        except QuatU11Error:
            status = REFUSED
        except Exception:  # a crash is a wrong answer; keep measuring
            if not tally.status[WRONG]:
                traceback.print_exc()
            status = WRONG
        elapsed = perf_counter() - start
        if status is None:
            status = wl.check(item, out)
        tally.status[status] += 1
        tally.outcomes[i].add(status)
        tally.best[i] = min(tally.best[i], elapsed)
        elapsed_s.append(elapsed)
        if wl.reference_per_op:
            after = wl.reference_seconds()
            tally.ratios[i].append(2.0 * elapsed / (before + after))
            tally.kernel.append(after)
            before = after
    if not wl.reference_per_op:
        after = wl.reference_seconds()
        for i, elapsed in enumerate(elapsed_s):
            tally.ratios[i].append(2.0 * elapsed / (before + after))
        tally.kernel.append(after)


def _wall_seconds(argv, env) -> float:
    start = perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


def import_seconds(target: str, env) -> float:
    code = ("import time; t = time.perf_counter(); "
            f"import {target}; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, check=True, timeout=60)
    return float(proc.stdout)


def set_up(wl_cls, seed, env):
    """Build the workload SETUP_REPEATS times.  setup_s is the median of
    (fresh-interpreter import time + input generation).  The import runs in
    a child process, so it is scaled by the process reference run on either
    side of it; the generation runs here and is scaled by the reference
    kernel."""
    times = []
    kernel_scale = SETUP_KERNEL_REPS * REFERENCE_US_PER_REP * 1e-6
    process_scale = PROCESS_REFERENCE_US * 1e-6
    process_before = process_reference_seconds(env, ROOT)
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(wl_cls.import_target, env)
        process_after = process_reference_seconds(env, ROOT)
        kernel_before = reference_seconds(SETUP_KERNEL_REPS)
        start = perf_counter()
        wl = wl_cls(seed, ROOT)
        generated = perf_counter() - start
        kernel_after = reference_seconds(SETUP_KERNEL_REPS)
        times.append(
            2.0 * imported / (process_before + process_after) * process_scale
            + 2.0 * generated / (kernel_before + kernel_after) * kernel_scale)
        process_before = process_after
    return wl, statistics.median(times)


def failed_items(tallies) -> int:
    """Items that were not OK on some pass of any of `tallies`.  Counting
    items, not runs, keeps the count fixed for a seed however many passes
    the time allowed."""
    return sum(any(t.outcomes[i] != {OK} for t in tallies)
               for i in range(len(tallies[0].outcomes)))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, tally: Tally, setup_s: float):
    item_us = tally.item_us()
    ok = 1.0 - failed_items([tally]) / len(item_us)
    metrics = {
        "ops_per_s": _metric(tally.ops_per_s(), "1/s"),
        "op_p50_us": _metric(quantile(item_us, 0.5), "us"),
        "op_tail_us": _metric(quantile(item_us, wl.tail_percentile / 100),
                              "us"),
        "ok_frac": _metric(ok, "frac"),
        "setup_s": _metric(setup_s, "s"),
    }
    context = {
        "tail_percentile": wl.tail_percentile, "items": len(item_us),
        "passes": len(tally.ratios[0]), "op_p90_us": quantile(item_us, 0.9),
        "op_p99_us": quantile(item_us, 0.99), "failed_frac": 1.0 - ok,
        "outcomes": dict(tally.status),
        "host_slowdown": statistics.median(tally.kernel)
        / (tally.quiet_us * 1e-6),
        "unscaled_fastest_ops_per_s": len(tally.best) / math.fsum(tally.best),
    }
    return metrics, context


def microbench_us(wl) -> dict:
    m = random_element([wl.seed, 6]).m
    env = {"p": Quaternion(0.3, -0.5, 0.1, 0.8),
           "q": Quaternion(-0.2, 0.4, 0.9, -0.1), "m": m, "n": m.adjoint()}

    def per_call(stmt, number):
        runs = timeit.Timer(stmt, globals=env).repeat(repeat=3, number=number)
        return statistics.median(runs) / number * 1e6

    return {"quaternion.mul.us_per_call": per_call("p * q", 20000),
            "mat2h.matmul.us_per_call": per_call("m @ n", 4000),
            "mat2h.chi.us_per_call": per_call("m.chi()", 4000),
            "mat2h.is_singular.us_per_call": per_call("m.is_singular()", 1000)}


def layer_metrics(wl, census, counts, timed, plain, traced, env):
    calls, failed = census.calls_and_failures()
    self_s = timed.self_seconds()
    metrics = {}
    for fn in FUNCTIONS:
        metrics[f"{fn}.calls"] = _metric(calls[fn], "count")
        metrics[f"{fn}.us_per_call"] = _metric(
            _mean(self_s.get(fn, ())) * 1e6, "us")
        metrics[f"{fn}.failed"] = _metric(failed[fn], "count")
    for command in CLI_COMMANDS:
        metrics[f"cli.call_us.{command}"] = _metric(
            _mean(self_s.get("cli." + command, ())) * 1e6, "us")
    metrics["cli.import_us"] = _metric(statistics.median(
        _wall_seconds([sys.executable, "-c", "import quatu11.cli"], env)
        for _ in range(PROBE_REPEATS)) * 1e6, "us")
    metrics["cli.interpreter_us"] = _metric(statistics.median(
        _wall_seconds([sys.executable, "-c", "pass"], env)
        for _ in range(PROBE_REPEATS)) * 1e6, "us")
    for key in ("quaternion.mul", "mat2h.matmul", "mat2h.chi"):
        metrics[f"{key}_per_op"] = _metric(counts[key] / len(wl.items),
                                           "count/op")
    by_class = Counter(wl.items[span[OP_ID]][0]
                       for span in census.spans
                       if span[NAME] == "spectra.left_eigenvalues"
                       and span[FAILED])
    for cls in CLASSES + [OFF_GROUP]:
        metrics[f"spectra.left_eigenvalues.failed.{cls}"] = _metric(
            by_class[cls], "count")
    for name, value in microbench_us(wl).items():
        metrics[name] = _metric(value, "us")
    metrics["trace.overhead_frac"] = _metric(
        1.0 - traced.ops_per_s() / plain.ops_per_s(), "frac")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    """Set up, measure and print the context line and the result line."""
    env = cli_env(ROOT)
    wl, setup_s = set_up(WORKLOADS[workload], seed, env)
    plain = Tally(wl)
    passes = [plain]
    if trace:
        census, timed = Tracer(), Tracer()
        census_tally, traced = Tally(wl), Tally(wl)
        targets = [(Quaternion, "__mul__", "quaternion.mul"),
                   (Mat2H, "__matmul__", "mat2h.matmul"),
                   (Mat2H, "chi", "mat2h.chi")]
        with counting(targets) as counts:
            run_pass(wl, census.call, census, census_tally)
        passes += [census_tally, traced]
    start = perf_counter()
    while True:
        run_pass(wl, direct, None, plain)
        if trace:
            run_pass(wl, timed.call, timed, traced)
        if perf_counter() - start >= seconds:
            break

    metrics, context = end_to_end(wl, plain, setup_s)
    if trace:
        metrics = layer_metrics(wl, census, counts, timed, plain, traced, env)
        WORKDIR.mkdir(parents=True, exist_ok=True)
        census.write(WORKDIR / f"spans-{wl.name}-census.tsv")
        timed.write(WORKDIR / f"spans-{wl.name}-timed.tsv")
    # One attempt per item: every pass repeats the same items, so outcomes
    # are counted once per item and stay the same for a given seed.
    attempted = len(wl.items)
    failed = failed_items(passes)
    context.update(workload=wl.name, seed=seed, trace=int(trace),
                   python=sys.version.split()[0], numpy=numpy.__version__,
                   nproc=os.cpu_count())
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not any(t.status[WRONG] for t in passes),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
