"""End-to-end command line checks: output shape, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from quatu11.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

R2 = math.sqrt(2)

EXAMPLE_DOC = {
    "a": [2.0, 1.0, 0.0, 0.0],
    "b": [-R2, R2, 0.0, 0.0],
    "c": [-R2, R2, 0.0, 0.0],
    "d": [-1.0, -2.0, 0.0, 0.0],
}


def run_cli(*args, stdin=None):
    """Call the CLI's main() in this process with stdin, stdout and stderr
    swapped for strings; SystemExit (argparse) becomes the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin or "")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def run_process(*args, stdin=None):
    """Run `python -m quatu11.cli` as a real process, for the exit codes and
    stderr that the interpreter itself produces."""
    # Put this checkout's src/ first so the child imports the code under test.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "quatu11.cli", *args],
                          capture_output=True, text=True, input=stdin, env=env)


@pytest.fixture()
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(EXAMPLE_DOC))
    return str(path)


def test_validate_member(example_file):
    proc = run_process("validate", example_file)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["member"] is True
    assert doc["membership_residual"] < 1e-12


def test_validate_rejects_non_member():
    doc = {"a": [1, 0, 0, 0], "b": [1, 0, 0, 0], "c": [0] * 4, "d": [1, 0, 0, 0]}
    proc = run_cli("validate", "-", stdin=json.dumps(doc))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["member"] is False


def test_invariants_output(example_file):
    proc = run_cli("invariants", example_file)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["invariants"]["delta"] == pytest.approx(-1.0, abs=1e-12)
    assert doc["invariants"]["tr1"] == 2.0
    assert all(r < 1e-12 for r in doc["identity_residuals"].values())


def test_classify_output(example_file):
    proc = run_cli("classify", example_file)
    doc = json.loads(proc.stdout)
    assert doc["class"] == "CompoundElliptic"
    assert doc["coarse"] == "elliptic"
    assert doc["evidence"]["delta"] == pytest.approx(-1.0, abs=1e-12)


def test_spectrum_kinds(example_file):
    right = json.loads(run_cli("spectrum", example_file).stdout)
    assert [s["re"] for s in right["spheres"]] == pytest.approx([1.0, 0.0], abs=1e-10)
    with_oracle = json.loads(run_cli("spectrum", "--oracle", example_file).stdout)
    assert with_oracle["agrees"] is True
    assert with_oracle["max_deviation"] < 1e-7
    s_kind = json.loads(run_cli("spectrum", "--kind", "s", example_file).stdout)
    assert s_kind["spheres"] == right["spheres"]
    left = json.loads(run_cli("spectrum", "--kind", "left", example_file).stdout)
    assert left["kind"] == "left"
    assert len(left["points"]) == 2


def test_apply_golden(example_file):
    proc = run_cli("apply", "--point", "[0, 0, 0, 0]", example_file)
    doc = json.loads(proc.stdout)
    assert doc["image_norm"] < 1.0
    # b d^-1 for the stored entries
    assert doc["image"][0] == pytest.approx(-0.2828427124746, abs=1e-10)


def test_apply_rejects_exterior_points(example_file):
    proc = run_cli("apply", "--point", "[1, 0, 0, 0]", example_file)
    assert proc.returncode == 1


def test_apply_rejects_non_finite_point(example_file):
    proc = run_cli("apply", "--point", "[NaN, 0, 0, 0]", example_file)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


def test_boolean_component_is_not_a_number():
    # read as 1, the document would be the identity, a member
    doc = {"a": [True, 0, 0, 0], "b": [0] * 4, "c": [0] * 4, "d": [1, 0, 0, 0]}
    proc = run_cli("validate", "-", stdin=json.dumps(doc))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


NON_MEMBER = {"a": [1, 0, 0, 0], "b": [1, 0, 0, 0], "c": [0] * 4,
              "d": [1, 0, 0, 0]}


@pytest.mark.parametrize("command", ["invariants", "spectrum"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
def test_tolerance_flags_cannot_switch_off_the_membership_gate(command, value):
    proc = run_cli(command, "-", f"--tol-membership={value}",
                   stdin=json.dumps(NON_MEMBER))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("flag", ["--tol-spectrum"])
def test_spectrum_rejects_non_finite_tolerances(example_file, flag):
    proc = run_cli("spectrum", example_file, f"{flag}=nan")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


def test_check_identities_rejects_negative_tolerance():
    proc = run_cli("check-identities", "--seed", "1", "--trials", "1",
                   "--tol-identity=-1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_identities_rejects_an_empty_element_set(trials):
    proc = run_cli("check-identities", "--seed", "1", "--trials", trials)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --trials")


@pytest.mark.parametrize("command", [["random"], ["check-identities", "--trials", "1"]])
def test_negative_seed_is_rejected_before_sampling(command):
    proc = run_cli(*command, "--seed", "-1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: --seed must be a non-negative integer, got -1\n"


def test_check_identities_zero_trials_checks_the_injected_matrix(example_file):
    proc = run_cli("check-identities", "--seed", "1", "--trials", "0",
                   "--matrix", example_file)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["trials"] == 1 and doc["pass"] is True


@pytest.mark.parametrize("command", ["spectrum", "classify", "diagonalize"])
def test_eps_class_is_not_a_flag(example_file, command):
    proc = run_cli(command, example_file, "--eps-class", "1e-3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: --eps-class" in proc.stderr


def test_diagonalize_output(example_file):
    doc = json.loads(run_cli("diagonalize", example_file).stdout)
    assert doc["case"] == "Case3"
    assert doc["residual_conjugation"] < 1e-9
    assert doc["d"]["a"][0] == pytest.approx(1.0, abs=1e-9)
    assert doc["d"]["d"][1] == pytest.approx(1.0, abs=1e-9)


def test_diagonalize_loxodromic_exits_2():
    sample = run_cli("random", "--seed", "9", "--class", "SimpleLoxodromic")
    proc = run_process("diagonalize", "-", stdin=sample.stdout)
    assert proc.returncode == 2


def test_random_is_deterministic_and_member():
    first = run_cli("random", "--seed", "42")
    second = run_cli("random", "--seed", "42")
    assert first.stdout == second.stdout
    check = run_cli("validate", "-", stdin=first.stdout)
    assert check.returncode == 0


def test_random_class_hint_round_trips():
    sample = run_cli("random", "--seed", "7", "--class", "CompoundParabolic")
    doc = json.loads(run_cli("classify", "-", stdin=sample.stdout).stdout)
    assert doc["class"] == "CompoundParabolic"


def test_check_identities_passes():
    proc = run_cli("check-identities", "--seed", "42", "--trials", "10")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    names = {row["identity"] for row in doc["rows"]}
    assert "membership" in names and "delta_via_traces" in names


def test_check_identities_flags_corruption():
    bad = {"a": [1.5, 0, 0, 0], "b": [0] * 4, "c": [0] * 4, "d": [1, 0, 0, 0]}
    proc = run_cli("check-identities", "--seed", "1", "--trials", "3",
                   "--matrix", "-", stdin=json.dumps(bad))
    assert proc.returncode == 1


HUGE = {"a": [1e200, 0, 0, 0], "b": [0] * 4, "c": [0] * 4, "d": [1, 0, 0, 0]}
HUGE_DIAGONAL = {**HUGE, "d": [1e200, 0, 0, 0]}


def test_check_identities_overflow_is_a_clean_error():
    # delta's (a0 - d0) ** 2 overflows on the injected matrix
    proc = run_process("check-identities", "--seed", "1", "--trials", "2",
                       "--matrix", "-", stdin=json.dumps(HUGE))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("doc", [HUGE, HUGE_DIAGONAL], ids=["inf", "nan"])
def test_validate_names_a_non_finite_residual(doc):
    proc = run_cli("validate", "-", stdin=json.dumps(doc))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: membership residual is not finite")


def test_nan_residual_is_not_a_member():
    # |a| - |d| is inf - inf here; NaN must not slip past `residual > tol`
    proc = run_cli("classify", "-", stdin=json.dumps(HUGE_DIAGONAL))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: matrix is not in the group")


def test_malformed_json_is_a_clean_error(example_file):
    proc = run_cli("validate", "-", stdin='{"a": [1, 0')
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    proc = run_cli("validate", "/nonexistent/path.json")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_pretty_flag_is_cosmetic(example_file):
    plain = run_cli("classify", example_file).stdout
    pretty = run_cli("classify", "--pretty", example_file).stdout
    assert plain != pretty
    assert json.loads(plain) == json.loads(pretty)
