"""Byte-for-byte CLI output on committed matrices.

`tests/golden/` holds one matrix per Moebius class (`quatu11 random --seed 1
--class <Class>`) and the README worked example, plus `expected.json`: the
exit code and exact stdout of validate, invariants, classify, spectrum
--kind right, apply --point and diagonalize on each of them.  These
subcommands use only Python float arithmetic, so the bytes do not depend on
the platform, and a change that must keep every output bit is held to it
here.  The expectations were written once by

    PYTHONPATH=src python tests/test_cli_golden.py

and should only be rewritten that way for a deliberate output change.

`check_identities_seed3.txt` is the exact stdout of `quatu11
check-identities --seed 3 --trials 200`: the sampler, the power chain and
every identity residual, printed to the last bit.  `random_seed1.json` is
that of `quatu11 random --seed 1`, the hint-free draw, and each class
matrix is that of `quatu11 random --seed 1 --class <Class>`.  All three
also rest on numpy's seeded normal draws.

Every command runs through the in-process `main`; these are the only
golden checks.  CI adds a smoke test of the installed `quatu11` script
(one class draw and one Case-3 diagonalization), not a second replay.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from quatu11 import Mat2H, Quaternion
from quatu11.cli import main
from quatu11.spectra import SPECTRUM_TOL

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected.json"
CHECK_IDENTITIES = GOLDEN / "check_identities_seed3.txt"
CHECK_IDENTITIES_ARGS = ["check-identities", "--seed", "3", "--trials", "200"]
RANDOM_SEED1 = GOLDEN / "random_seed1.json"
RANDOM_SEED1_ARGS = ["random", "--seed", "1"]

MATRICES = ["SimpleElliptic", "CompoundElliptic", "SimpleParabolic",
            "CompoundParabolic", "SimpleLoxodromic", "CompoundLoxodromic",
            "WorkedExample"]
COMMANDS = {
    "validate": ["validate"],
    "invariants": ["invariants"],
    "classify": ["classify"],
    "spectrum_right": ["spectrum", "--kind", "right"],
    "apply": ["apply", "--point", "[0.1, -0.2, 0.3, 0.05]"],
    "diagonalize": ["diagonalize"],
}


def _main(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _run(command: str, matrix: str) -> dict:
    name, *flags = COMMANDS[command]
    return _main([name, str(GOLDEN / f"{matrix}.json"), *flags])


CASES = [(command, matrix) for matrix in MATRICES for command in COMMANDS]


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("matrix", MATRICES[:-1])
def test_class_matrices_are_the_sampler_output(matrix):
    # Pins the bits of random_element: each class matrix is the stdout of
    # its seed-1 draw, `quatu11 random --seed 1 --class <Class>`.
    want = (GOLDEN / f"{matrix}.json").read_text(encoding="utf-8")
    got = _main([*RANDOM_SEED1_ARGS, "--class", matrix])
    assert got == {"exit": 0, "stdout": want}


@pytest.mark.parametrize("command,matrix", CASES,
                         ids=[f"{c}-{m}" for c, m in CASES])
def test_cli_output_is_byte_identical(expected, command, matrix):
    assert _run(command, matrix) == expected[f"{command} {matrix}"]


@pytest.mark.parametrize("matrix", MATRICES)
def test_left_spectrum_points_make_the_matrix_singular(matrix):
    # The left spectrum's last bits follow the platform's libm (acos, cosh),
    # so it is held to a shape rather than to bytes: something is printed,
    # and each point makes M - lambda I singular.
    path = GOLDEN / f"{matrix}.json"
    got = _main(["spectrum", "--kind", "left", str(path)])
    assert got["exit"] == 0
    doc = json.loads(got["stdout"])
    m = Mat2H.from_json(json.loads(path.read_text(encoding="utf-8")))
    lams = [Quaternion.from_list(p) for p in doc.get("points", [])]
    assert lams or doc.get("families")
    assert all((m - Mat2H.diag(lam, lam)).is_singular(SPECTRUM_TOL)
               for lam in lams)


@pytest.mark.parametrize("matrix", MATRICES)
def test_oracle_agrees_with_the_closed_forms(matrix):
    # The oracle's eigenvalues come from LAPACK, so its output is not
    # byte-pinned either: it must agree with the closed forms.
    got = _main(["spectrum", "--oracle", str(GOLDEN / f"{matrix}.json")])
    assert got["exit"] == 0
    assert json.loads(got["stdout"])["agrees"] is True


def test_check_identities_output_is_byte_identical():
    want = CHECK_IDENTITIES.read_text(encoding="utf-8")
    assert _main(CHECK_IDENTITIES_ARGS) == {"exit": 0, "stdout": want}


def test_hint_free_random_output_is_byte_identical():
    want = RANDOM_SEED1.read_text(encoding="utf-8")
    assert _main(RANDOM_SEED1_ARGS) == {"exit": 0, "stdout": want}


if __name__ == "__main__":
    doc = {f"{c} {m}": _run(c, m) for c, m in CASES}
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    CHECK_IDENTITIES.write_text(_main(CHECK_IDENTITIES_ARGS)["stdout"],
                                encoding="utf-8")
    RANDOM_SEED1.write_text(_main(RANDOM_SEED1_ARGS)["stdout"],
                            encoding="utf-8")
