"""The threshold table: every tolerance of the package is one row of
`quatu11._thresholds`, read from there, and listed in README's table.  The
branch tests pin the two decisions no other test reaches, each on both
sides of its threshold, so a row moved by a decade in either direction
fails here."""

import ast
import math
import re
from pathlib import Path

import pytest

from quatu11 import Mat2H, Quaternion, _thresholds, apply
from quatu11._diagonalize_kernel import _unit_point
from quatu11.errors import BallViolationError, CaseMismatchError, PoleError
from quatu11.group import GroupElement

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quatu11"
TABLE = SRC / "_thresholds.py"
ROWS = {name: value for name, value in vars(_thresholds).items()
        if name.isupper()}
MODULES = {path.name: ast.parse(path.read_text())
           for path in sorted(SRC.glob("*.py")) if path != TABLE}


def test_table_is_flat_rows_of_literals():
    body = ast.parse(TABLE.read_text()).body
    assert isinstance(body[0], ast.Expr)  # the docstring
    names = []
    for node in body[1:]:
        assert isinstance(node, ast.Assign), ast.dump(node)
        target, = node.targets
        names.append(target.id)
        ast.literal_eval(node.value)
    assert names == list(ROWS)  # each row once; nothing but rows


def _identity_check_tols(tree) -> set:
    """ids of the tol arguments of the IdentityCheck(name, tol, fn) rows."""
    tols = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "IdentityCheck":
            tols.update(id(arg) for arg in node.args[1:2])
            tols.update(id(k.value) for k in node.keywords if k.arg == "tol")
    return tols


def test_no_threshold_literal_outside_the_table():
    found = []
    for module, tree in MODULES.items():
        allowed = _identity_check_tols(tree)
        found += [f"{module}:{node.lineno} {node.value!r}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, float)
                  and 0.0 < abs(node.value) < 1e-2 and id(node) not in allowed]
    assert found == []


def _row_read(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id if node.id in ROWS else None
    if isinstance(node, ast.Attribute):
        return node.attr if node.attr in ROWS else None
    return None


def test_no_row_is_defined_or_aliased_elsewhere():
    found = []
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Store) \
                    and _row_read(node):
                found.append(f"{module}:{node.lineno} assigns {_row_read(node)}")
            if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and _row_read(node.value):
                found.append(f"{module}:{node.lineno} aliases "
                             f"{_row_read(node.value)}")
            if isinstance(node, ast.ImportFrom):
                found += [f"{module}:{node.lineno} imports {a.name} as "
                          f"{a.asname}" for a in node.names
                          if a.name in ROWS and a.asname]
    assert found == []


def test_every_row_is_read():
    read = {_row_read(node) for tree in MODULES.values()
            for node in ast.walk(tree)
            if isinstance(getattr(node, "ctx", None), ast.Load)}
    assert sorted(set(ROWS) - read) == []


def test_readme_table_lists_the_rows():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Numerical conventions", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, re.M)
    assert dict(listed) == {name: repr(value) for name, value in ROWS.items()}
    assert len(listed) == len(ROWS)


@pytest.mark.parametrize("eps, error", [(0.0, PoleError), (5e-15, PoleError),
                                        (5e-14, BallViolationError)])
def test_pole_tol_separates_a_pole_from_an_escape(eps, error):
    # c z + d = 0.5 + (-0.5 + eps) at z = 0.5; unvalidated, as a group
    # element keeps |c z + d| >= 1 / (|c| + |d|)
    t = GroupElement(Mat2H(1, 0, 1, -0.5 + eps), 0.0)
    with pytest.raises(error):
        apply(t, Quaternion(0.5))


def _unit_real_part(radicand: float) -> float:
    s0 = math.sqrt(1.0 - radicand)
    assert 1.0 - s0 * s0 == pytest.approx(radicand, rel=1e-2)
    return s0


def test_unit_point_refuses_a_radicand_below_the_floor():
    with pytest.raises(CaseMismatchError, match="left the unit circle"):
        _unit_point(_unit_real_part(-4e-9))


@pytest.mark.parametrize("radicand", [-2e-10, 2e-13])
def test_unit_point_snaps_a_small_radicand_to_zero(radicand):
    s0 = _unit_real_part(radicand)
    assert _unit_point(s0) == Quaternion(s0, 0.0)


def test_unit_point_keeps_a_radicand_past_the_snap():
    s0 = _unit_real_part(4e-12)
    assert _unit_point(s0) == Quaternion(s0, math.sqrt(1.0 - s0 * s0))
