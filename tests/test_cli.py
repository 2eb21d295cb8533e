"""End-to-end command line checks: output shape, determinism, exit codes."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import quatu11.cli
from quatu11 import Mat2H, RightSpectrum, right_spectrum, validate
from quatu11.cli import build_parser, main
from quatu11.errors import (CaseMismatchError, ClaimViolationError,
                            NoRootFoundError, NotApplicableError,
                            NotEllipticError, PoleError)
from quatu11.group import random_element
from quatu11.invariants import IDENTITY_CHECKS
from quatu11.spectra import SPECTRUM_TOL

from probes import searched_compound_parabolic, worked_example
from test_cli_golden import MATRICES

GOLDEN = Path(__file__).resolve().parent / "golden"

SRC = str(Path(__file__).resolve().parents[1] / "src")

EXAMPLE_DOC = worked_example().m.to_json()


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


def run_python(*args, stdin=None):
    """Run a fresh interpreter with this checkout's src/ first on its path,
    so the child imports the code under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, input=stdin, env=env)


def run_process(*args, stdin=None):
    """Run `python -m quatu11.cli` as a real process, for the exit codes and
    stderr that the interpreter itself produces."""
    return run_python("-m", "quatu11.cli", *args, stdin=stdin)


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


def test_left_spectrum_with_oracle_prints_the_right_spheres():
    # --kind left --oracle adds the chi oracle's right spectrum beside the
    # left eigenvalues, with no agreement verdict of its own
    for matrix in MATRICES:
        path = GOLDEN / f"{matrix}.json"
        proc = run_cli("spectrum", "--kind", "left", "--oracle", str(path))
        assert proc.returncode == 0, matrix
        doc = json.loads(proc.stdout)
        assert "points" in doc and "families" in doc, matrix
        oracle = RightSpectrum.from_pairs(
            [(s["re"], s["modulus"]) for s in doc["oracle_spheres"]])
        t = validate(Mat2H.from_json(
            json.loads(path.read_text(encoding="utf-8"))))
        assert right_spectrum(t).max_deviation(oracle) <= SPECTRUM_TOL, matrix


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


def test_integer_part_past_the_float_range_is_refused():
    # refused as a float literal past the range (parsed as inf) is, not
    # with the OverflowError of converting the int
    doc = {"a": [10 ** 400, 0, 0, 0], "b": [0] * 4, "c": [0] * 4,
           "d": [1, 0, 0, 0]}
    proc = run_cli("validate", "-", stdin=json.dumps(doc))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == \
        "error: entry 'a' has a non-numeric or non-finite part\n"


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


def test_check_identities_pretty_prints_a_line_per_row_and_a_verdict():
    args = ["check-identities", "--seed", "3", "--trials", "5", "--pretty"]
    names = ["membership"] + [check.name for check in IDENTITY_CHECKS]
    proc = run_cli(*args)
    *rows, verdict = proc.stdout.splitlines()
    assert proc.returncode == 0
    assert [row.split()[0] for row in rows] == names
    assert all(row.endswith("  ok") for row in rows)
    assert verdict == "all passed (5 elements, seed 3)"
    proc = run_cli(*args, "--tol-identity", "0")
    *rows, verdict = proc.stdout.splitlines()
    assert proc.returncode == 1
    assert [row.split()[0] for row in rows] == names
    assert any(row.endswith("  FAIL") for row in rows)
    assert verdict == "FAILED (5 elements, seed 3)"


def test_check_identities_flags_corruption():
    bad = {"a": [1.5, 0, 0, 0], "b": [0] * 4, "c": [0] * 4, "d": [1, 0, 0, 0]}
    proc = run_cli("check-identities", "--seed", "1", "--trials", "3",
                   "--matrix", "-", stdin=json.dumps(bad))
    assert proc.returncode == 1


HUGE = {"a": [1e200, 0, 0, 0], "b": [0] * 4, "c": [0] * 4, "d": [1, 0, 0, 0]}
HUGE_DIAGONAL = {**HUGE, "d": [1e200, 0, 0, 0]}


def test_check_identities_overflow_is_a_clean_error():
    # delta's (a0 - d0) ** 2 overflows on the injected matrix; the in-process
    # run reaches main's last handler, except ArithmeticError, under this
    # interpreter
    for runner in (run_process, run_cli):
        proc = runner("check-identities", "--seed", "1", "--trials", "2",
                      "--matrix", "-", stdin=json.dumps(HUGE))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")


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


NUMPY_BOUNDARY = """
import contextlib, io, json, sys
import quatu11, quatu11.cli
example, loxodromic = sys.argv[1:]

def call(*args, path=example):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = quatu11.cli.main([*args, path])
    return code, out.getvalue()

codes = [call(*args)[0] for args in (
    ["validate"], ["invariants"], ["classify"],
    ["apply", "--point", "[0.1, 0.0, 0.0, 0.0]"], ["diagonalize"],
    ["spectrum", "--kind", "right"])]
# D != 0 here, so the left spectrum solves the resolvent cubic
code, left = call("spectrum", "--kind", "left", path=loxodromic)
codes.append(code)
before = "numpy" in sys.modules
code, oracle = call("spectrum", "--oracle")
print(json.dumps({"codes": codes, "before": before, "oracle_code": code,
                  "after": "numpy" in sys.modules, "oracle": oracle,
                  "left": left}))
"""


def test_numpy_loads_only_where_it_computes(example_file):
    proc = run_python("-c", NUMPY_BOUNDARY, example_file,
                      str(GOLDEN / "CompoundLoxodromic.json"))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0] * 7
    assert len(json.loads(doc["left"])["points"]) == 2
    assert doc["before"] is False
    assert doc["oracle_code"] == 0
    assert doc["after"] is True
    assert json.loads(doc["oracle"])["agrees"] is True


def _numpy_import_sites() -> set:
    """module.qualname of each function in src/quatu11 whose own body
    imports numpy."""
    sites = set()

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name],
                      isinstance(child, ast.FunctionDef))
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if in_function and any(n.split(".")[0] == "numpy" for n in names):
                sites.add(".".join(scope))
            visit(child, scope, in_function)

    for path in Path(SRC, "quatu11").glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem], False)
    return sites


def test_numpy_is_imported_only_by_its_entry_points():
    assert _numpy_import_sites() == {
        "mat2h.Mat2H.chi", "mat2h.Mat2H.is_singular",
        "group.random_element", "spectra.right_spectrum_oracle",
        "spectra.SpectralSphere.sample", "spectra.SphereFamily.sample"}


NO_DATACLASSES = """
import contextlib, io, json, sys
import quatu11.cli
heavy = ("dataclasses", "inspect", "typing")
loaded = {"import": [m for m in heavy if m in sys.modules]}
for args in (["validate"], ["invariants"], ["classify"],
             ["apply", "--point", "[0.1, 0.0, 0.0, 0.0]"], ["diagonalize"],
             ["spectrum", "--kind", "right"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert quatu11.cli.main([*args, sys.argv[1]]) == 0, args
    loaded[args[0]] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
"""


def test_cli_loads_neither_dataclasses_nor_inspect(example_file):
    # -S: no site hook or .pth file preloads a module into the child
    proc = run_python("-S", "-c", NO_DATACLASSES, example_file)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert list(loaded) == ["import", "validate", "invariants", "classify",
                            "apply", "diagonalize", "spectrum"]
    assert all(names == [] for names in loaded.values()), loaded


# -- the parser surface and the exit-code families --------------------------

PARSER_SURFACE = {
    "validate": (["validate", "m.json"], [
        ("command", "validate"), ("matrix", "m.json"),
        ("tol_membership", 1e-9), ("pretty", False)]),
    "invariants": (["invariants", "m.json"], [
        ("command", "invariants"), ("matrix", "m.json"),
        ("tol_membership", 1e-9), ("pretty", False)]),
    "spectrum": (["spectrum", "m.json"], [
        ("command", "spectrum"), ("matrix", "m.json"),
        ("tol_membership", 1e-9), ("pretty", False), ("kind", "right"),
        ("oracle", False), ("tol_spectrum", 1e-7)]),
    "classify": (["classify", "m.json"], [
        ("command", "classify"), ("matrix", "m.json"),
        ("tol_membership", 1e-9), ("pretty", False)]),
    "apply": (["apply", "--point", "[0,0,0,0]", "m.json"], [
        ("command", "apply"), ("matrix", "m.json"),
        ("tol_membership", 1e-9), ("pretty", False),
        ("point", "[0,0,0,0]")]),
    "diagonalize": (["diagonalize", "m.json"], [
        ("command", "diagonalize"), ("matrix", "m.json"),
        ("tol_membership", 1e-9), ("pretty", False)]),
    "random": (["random", "--seed", "1"], [
        ("command", "random"), ("tol_membership", 1e-9), ("pretty", False),
        ("seed", 1), ("class_hint", None)]),
    "check-identities": (["check-identities", "--seed", "1"], [
        ("command", "check-identities"), ("tol_membership", 1e-9),
        ("pretty", False), ("seed", 1), ("trials", 100), ("matrix", None),
        ("tol_identity", None)]),
}


@pytest.mark.parametrize("command", list(PARSER_SURFACE))
def test_parser_surface(command):
    # every dest, its default and their order; the handler entries are the
    # callables, and which of them a subcommand carries is not surface
    argv, expected = PARSER_SURFACE[command]
    parsed = vars(build_parser().parse_args(argv))
    assert [(k, v) for k, v in parsed.items() if not callable(v)] == expected


def test_parser_lists_the_subcommands_in_order():
    usage = build_parser().format_usage()
    assert "{" + ",".join(PARSER_SURFACE) + "}" in usage


def test_help_reaches_every_subcommand():
    # argparse formats each help text only for --help, so a bad one (a
    # stray %) fails here and nowhere else
    for command in PARSER_SURFACE:
        proc = run_cli(command, "--help")
        assert proc.returncode == 0, command
        assert proc.stdout.startswith(f"usage: quatu11 {command} "), command
    proc = run_cli()
    assert (proc.returncode, proc.stdout) == (1, build_parser().format_help())


def test_console_script_is_the_cli_main():
    # read as text, so it runs where tomllib is missing (Python 3.10)
    text = Path(SRC).parent.joinpath("pyproject.toml").read_text(
        encoding="utf-8")
    assert '\n[project.scripts]\nquatu11 = "quatu11.cli:main"\n' in text


def _raising(exc):
    def fail(_t):
        raise exc
    return fail


@pytest.mark.parametrize("exc", [NotApplicableError, NotEllipticError,
                                 PoleError, CaseMismatchError])
def test_not_applicable_family_exits_2(example_file, monkeypatch, exc):
    monkeypatch.setattr(quatu11.cli, "diagonalize_elliptic",
                        _raising(exc("no such thing")))
    proc = run_cli("diagonalize", example_file)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "not applicable: no such thing\n"


@pytest.mark.parametrize("exc", [NoRootFoundError, ClaimViolationError])
def test_numerical_failures_exit_1(example_file, monkeypatch, exc):
    monkeypatch.setattr(quatu11.cli, "diagonalize_elliptic",
                        _raising(exc("it failed")))
    proc = run_cli("diagonalize", example_file)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: it failed\n"


def test_bad_point_is_reported_before_the_matrix_is_read():
    proc = run_cli("apply", "--point", "[NaN,0,0,0]", "/nonexistent.json")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: --point expects a JSON list of four "
                           "finite numbers\n")


def test_injected_matrix_replaces_the_first_draw(example_file, monkeypatch):
    seeds = []

    def recording(seed, *rest):
        seeds.append(seed)
        return random_element(seed, *rest)

    monkeypatch.setattr(quatu11.cli, "random_element", recording)
    proc = run_cli("check-identities", "--seed", "4", "--trials", "2",
                   "--matrix", example_file)
    assert proc.returncode == 0
    assert sorted(seeds) == [[4, 0, 1], [4, 1, 0], [4, 1, 1]]


def _route_deviations(doc) -> tuple:
    """Unified-casewise, unified-oracle and casewise-oracle deviations of
    the sphere lists in a `spectrum --oracle` document."""
    unified, casewise, oracle = (
        RightSpectrum.from_pairs([(s["re"], s["modulus"]) for s in doc[key]])
        for key in ("spheres", "spheres_casewise", "oracle_spheres"))
    return (unified.max_deviation(casewise), unified.max_deviation(oracle),
            casewise.max_deviation(oracle))


def test_oracle_agreement_reads_all_three_routes(tmp_path, example_file,
                                                 monkeypatch):
    # unified and casewise give the searched element's one sphere, and both
    # lie 1.13e-7 from the oracle, past the bound
    path = tmp_path / "searched.json"
    path.write_text(json.dumps(searched_compound_parabolic().to_json()))
    doc = json.loads(run_cli("spectrum", "--oracle", str(path)).stdout)
    deviations = _route_deviations(doc)
    assert doc["max_deviation"] == max(deviations) > SPECTRUM_TOL
    assert deviations[0] <= 1e-12
    assert doc["agrees"] is False
    # max_deviation is the largest of the three pairwise deviations: with
    # casewise alone moved 2 SPECTRUM_TOL off, a casewise pair sets it
    casewise = quatu11.cli.right_spectrum_casewise

    def shifted(t):
        return RightSpectrum.from_pairs(
            [(s.re + 2.0 * SPECTRUM_TOL, s.modulus)
             for s in casewise(t).spheres])

    monkeypatch.setattr(quatu11.cli, "right_spectrum_casewise", shifted)
    doc = json.loads(run_cli("spectrum", "--oracle", example_file).stdout)
    unified_casewise, unified_oracle, casewise_oracle = _route_deviations(doc)
    assert unified_oracle <= 1e-12
    assert doc["max_deviation"] == max(unified_casewise, casewise_oracle) \
        > SPECTRUM_TOL
    assert doc["agrees"] is False
