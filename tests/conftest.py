"""Shared fixtures: the worked example, seeded element pools, acceptance log."""

import math

import pytest

from quatu11 import Mat2H, MoebiusClass, Quaternion, random_element, validate

R2 = math.sqrt(2)

CLASS_NAMES = [c.value for c in MoebiusClass]


def worked_example():
    """The compound elliptic element [[2+i, -r2+r2i], [-r2+r2i, -1-2i]]."""
    a = Quaternion(2.0, 1.0, 0.0, 0.0)
    b = Quaternion(-R2, R2, 0.0, 0.0)
    d = Quaternion(-1.0, -2.0, 0.0, 0.0)
    return validate(Mat2H(a, b, b, d))


@pytest.fixture(scope="session")
def example():
    return worked_example()


@pytest.fixture(scope="session")
def class_pool():
    """A few elements of each Moebius class, keyed by class name."""
    return {name: [random_element([31, k], class_hint=name) for k in range(6)]
            for name in CLASS_NAMES}


@pytest.fixture(scope="session")
def generic_pool():
    return [random_element([32, k]) for k in range(60)]


@pytest.fixture(scope="session")
def signed_zero_inputs():
    """Case-2 and Case-3 elements whose entries have signed-zero parts."""
    out = []
    for z1, z2, z3 in ((0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (-0.0, -0.0, -0.0),
                       (0.0, -0.0, 0.0)):
        # Case 2: [[conj(d), conj(c)], [c, d]] with c and d in one complex
        # slice and |d|^2 == 1 + |c|^2
        for axis in (1, 2, 3):
            for c0, cs, d0 in ((1.0, z1, 0.5), (z2, 1.0, -0.25),
                               (0.6, -0.8, z3), (z1, 2.0, 0.75)):
                cp, dp = [c0, z1, z2, z3], [d0, z3, z1, z2]
                cp[axis] = cs
                dp[axis] = math.sqrt(1.0 + c0 * c0 + cs * cs - d0 * d0)
                c, d = Quaternion(*cp), Quaternion(*dp)
                out.append(validate(Mat2H(d.conjugate(), c.conjugate(), c, d)))
        # Case 3: diag(u, v) B(t) with Re u far from Re v and a small boost
        for sh in (0.1, 0.2):
            ch = math.sqrt(1.0 + sh * sh)
            boost = Mat2H(Quaternion(ch, z1, z2, z3), Quaternion(sh, z3, z1, z2),
                          Quaternion(sh, z2, z3, z1), Quaternion(ch, z3, z2, z1))
            for u, v in (((0.6, 0.8, z1, z2), (-0.6, z3, 0.8, z2)),
                         ((0.8, z2, z1, 0.6), (z1, z3, -1.0, z2)),
                         ((1.0, z1, z2, z3), (z3, 1.0, z1, z2))):
                out.append(validate(Mat2H.diag(Quaternion(*u), Quaternion(*v))
                                    @ boost))
    return out


ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Record one pass/fail line per criterion for the terminal summary."""

    def record(criterion: str, ok: bool, detail: str = "") -> bool:
        tail = f"  ({detail})" if detail else ""
        ACCEPTANCE_LINES.append(
            f"criterion {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
        return ok

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
