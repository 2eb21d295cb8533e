"""The benchmark's workloads: seeded inputs, the operation each one times,
and the check every operation's output must pass.

A workload holds a fixed list of items; one operation handles one item and a
pass runs the whole list in order.  `run` makes only the calls into quatu11
that the operation times, each through `call(span_name, fn, *args)`.
`check` then classifies the output, outside the timed region, as OK, REFUSED
(quatu11 raised or exited with one of its own errors) or WRONG (an output
failed its check, or something else went wrong).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from quatu11 import (Mat2H, MoebiusClass, Quaternion, apply, classify,
                     diagonalize_elliptic, left_eigenvalues, random_element,
                     report, right_spectrum, right_spectrum_casewise,
                     right_spectrum_oracle, validate)
from quatu11.errors import QuatU11Error
from quatu11.invariants import IDENTITY_CHECKS
from quatu11.spectra import SPECTRUM_TOL
from reference import (PROCESS_REFERENCE_US, REFERENCE_US_PER_REP,
                       process_reference_seconds, reference_seconds)

OK, REFUSED, WRONG = "ok", "refused", "wrong"

CLASSES = [cls.value for cls in MoebiusClass]
ELLIPTIC = ("SimpleElliptic", "CompoundElliptic")
OFF_GROUP = "OffGroup"

POOL_PER_CLASS = 100
GROUP_PER_OFF_GROUP = 3  # solve: an off-group matrix after every 3 (25%)
IDENTITY_INDICES = 120
DIAG_RESIDUAL_TOL = 1e-9
CLI_TIMEOUT_S = 60


def _ball_point(rng) -> Quaternion:
    v = rng.standard_normal(4)
    v *= 0.95 * rng.random() / float(np.linalg.norm(v))
    return Quaternion(*(float(p) for p in v))


def _class_pool(seed, stream: int) -> list[tuple[str, object]]:
    """(class, element) pairs cycling through all six classes."""
    return [(CLASSES[i % 6], random_element([seed, stream, i], CLASSES[i % 6]))
            for i in range(6 * POOL_PER_CLASS)]


class Workload:
    """Items of the pool-based workloads are tuples led by their class."""

    name = ""
    tail_percentile = 99
    import_target = "quatu11"
    kernel_reps = 2           # reference kernel size, about 1/5 of an op
    reference_per_op = True

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.items: list = self.build(seed, root)

    def reference_seconds(self) -> float:
        return reference_seconds(self.kernel_reps)

    def reference_quiet_us(self) -> float:
        return self.kernel_reps * REFERENCE_US_PER_REP


class ClosedForm(Workload):
    """validate -> report -> classify -> three right-spectrum routes -> apply."""

    name = "closed_form"
    kernel_reps = 1

    def build(self, seed, root):
        rng = np.random.default_rng([seed, 1])
        return [(cls, element.m, _ball_point(rng))
                for cls, element in _class_pool(seed, 1)]

    def run(self, item, call):
        _cls, m, z = item
        t = call("group.validate", validate, m)
        call("invariants.report", report, t)
        found = call("moebius.classify", classify, t)
        routes = (call("spectra.right_spectrum", right_spectrum, t),
                  call("spectra.right_spectrum_casewise",
                       right_spectrum_casewise, t),
                  call("spectra.right_spectrum_oracle",
                       right_spectrum_oracle, t.m))
        image = call("moebius.apply", apply, t, z)
        return found, routes, image

    def check(self, item, out):
        found, (unified, casewise, oracle), image = out
        agree = max(unified.max_deviation(casewise),
                    unified.max_deviation(oracle),
                    casewise.max_deviation(oracle)) <= SPECTRUM_TOL
        if found.value == item[0] and agree and image.norm() < 1.0:
            return OK
        return WRONG


class Solve(Workload):
    """left_eigenvalues, then diagonalize_elliptic on elliptic elements."""

    name = "solve"

    def build(self, seed, root):
        rng = np.random.default_rng([seed, 3])
        items = []
        for i, (cls, element) in enumerate(_class_pool(seed, 2), 1):
            items.append((cls, element.m, element))
            if i % GROUP_PER_OFF_GROUP == 0:
                v = rng.standard_normal(16)
                m = Mat2H(*(Quaternion(*(float(p) for p in v[4 * j:4 * j + 4]))
                            for j in range(4)))
                items.append((OFF_GROUP, m, None))
        return items

    def run(self, item, call):
        cls, m, element = item
        try:
            left = call("spectra.left_eigenvalues", left_eigenvalues, m)
        except QuatU11Error as exc:
            left = exc
        diag = None
        if cls in ELLIPTIC:
            try:
                diag = call("diagonalize.diagonalize_elliptic",
                            diagonalize_elliptic, element)
            except QuatU11Error as exc:
                diag = exc
        return left, diag

    def check(self, item, out):
        left, diag = out
        if not isinstance(left, QuatU11Error) \
                and not (left.points or left.families):
            return WRONG
        if diag is not None and not isinstance(diag, QuatU11Error) \
                and not diag.residual_conjugation <= DIAG_RESIDUAL_TOL:
            return WRONG
        if isinstance(left, QuatU11Error) or isinstance(diag, QuatU11Error):
            return REFUSED
        return OK


class Identities(Workload):
    """Sample T and G, then evaluate every identity check on them."""

    name = "identities"

    def build(self, seed, root):
        return list(range(IDENTITY_INDICES))

    def run(self, k, call):
        t = call("group.random_element", random_element, [self.seed, k])
        g = call("group.random_element", random_element, [self.seed, k, 1])
        return [call("invariants.identity_checks", check.fn, t, g)
                for check in IDENTITY_CHECKS]

    def check(self, k, residuals):
        if all(r <= check.tol for r, check in zip(residuals, IDENTITY_CHECKS)):
            return OK
        return WRONG


def cli_env(root: Path) -> dict:
    """The current environment with the working tree's src/ first on
    PYTHONPATH, so child interpreters import quatu11 from it."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


class Cli(Workload):
    """One sequential `python -m quatu11.cli` call per operation."""

    name = "cli"
    tail_percentile = 90
    import_target = "quatu11.cli"
    reference_per_op = False  # one process reference per pass of 8 calls

    def build(self, seed, root):
        self.root = root
        self.env = cli_env(root)
        self.first_stdout: dict[tuple, bytes] = {}
        workdir = root / "perfbench" / ".work" / "cli"
        workdir.mkdir(parents=True, exist_ok=True)
        files = {}
        for i, cls in enumerate(CLASSES):
            files[cls] = workdir / f"{cls}.json"
            doc = random_element([seed, 4, i], cls).m.to_json()
            files[cls].write_text(json.dumps(doc), encoding="utf-8")
        point = json.dumps(_ball_point(np.random.default_rng([seed, 5]))
                           .as_list())
        # One call per subcommand; which class file each one reads turns
        # with the seed, so every class meets every subcommand across seeds.
        commands = [("validate", ("validate",)),
                    ("invariants", ("invariants",)),
                    ("classify", ("classify",)),
                    ("spectrum_right", ("spectrum", "--oracle")),
                    ("spectrum_left", ("spectrum", "--kind", "left")),
                    ("apply", ("apply", "--point", point))]
        items = []
        for j, (command, (sub, *flags)) in enumerate(commands):
            cls = CLASSES[(seed + j) % len(CLASSES)]
            items.append((cls, command, (sub, str(files[cls]), *flags)))
        cls = ELLIPTIC[seed % len(ELLIPTIC)]
        items.append((cls, "diagonalize", ("diagonalize", str(files[cls]))))
        cls = CLASSES[(seed + len(commands)) % len(CLASSES)]
        items.append((cls, "random",
                      ("random", "--seed", str(seed), "--class", cls)))
        return items

    def reference_seconds(self) -> float:
        return process_reference_seconds(self.env, self.root)

    def reference_quiet_us(self) -> float:
        return PROCESS_REFERENCE_US

    def _invoke(self, args):
        return subprocess.run([sys.executable, "-m", "quatu11.cli", *args],
                              capture_output=True, env=self.env, cwd=self.root,
                              timeout=CLI_TIMEOUT_S, check=False)

    def run(self, item, call):
        _cls, command, args = item
        return call("cli." + command, self._invoke, args)

    def check(self, item, proc):
        if proc.returncode == 0:
            first = self.first_stdout.setdefault(item[2], proc.stdout)
            return OK if proc.stdout == first else WRONG
        if proc.returncode in (1, 2) and proc.stderr.startswith(
                (b"error:", b"not applicable:")):
            return REFUSED
        return WRONG


WORKLOADS = {cls.name: cls for cls in (ClosedForm, Solve, Identities, Cli)}

