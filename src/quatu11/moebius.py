"""Moebius action on the quaternionic unit ball and its six-way classification.

A group element T = [[a, b], [c, d]] acts by g(z) = (a z + b)(c z + d)^-1,
preserving the open unit ball; the kernel of the action is {I, -I}.
`stratum` is the one place that decides the conjugation class, and with it
the diagonalization case (the row below), from the off-diagonal pattern
together with d0 = Re d and delta(T) = |b - conj(c)|^2 - (Re a - Re d)^2:

    b == conj(c) == 0:  simple elliptic if a0 == d0, else compound elliptic
    b == conj(c) != 0:  d0^2 < 1 / == 1 / > 1 gives simple
                        elliptic / parabolic / loxodromic
    b != conj(c) != 0:  delta < 0 / == 0 / > 0 gives compound
                        elliptic / parabolic / loxodromic
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import BallViolationError, MembershipError, PoleError
from .group import GroupElement, _set_stratum
from .mat2h import Mat2H, _matrix
from .quaternion import Quaternion, _new, _qmul

EPS_CLASS = 1e-10
POLE_TOL = 1e-14
BALL_SLACK = 1e-12

__all__ = ["DiagonalizationCase", "MoebiusClass", "apply", "delta", "stratum",
           "classify", "is_elliptic", "evidence", "EPS_CLASS"]


class DiagonalizationCase(Enum):
    CASE1 = "Case1"
    CASE2 = "Case2"
    CASE3 = "Case3"


class MoebiusClass(Enum):
    SIMPLE_ELLIPTIC = "SimpleElliptic"
    COMPOUND_ELLIPTIC = "CompoundElliptic"
    SIMPLE_PARABOLIC = "SimpleParabolic"
    COMPOUND_PARABOLIC = "CompoundParabolic"
    SIMPLE_LOXODROMIC = "SimpleLoxodromic"
    COMPOUND_LOXODROMIC = "CompoundLoxodromic"

    @property
    def coarse(self) -> str:
        name = self.value
        for kind in ("Elliptic", "Parabolic", "Loxodromic"):
            if name.endswith(kind):
                return kind.lower()
        raise AssertionError(name)


def apply(t: GroupElement, z: Quaternion) -> Quaternion:
    """Evaluate the ball action (a z + b)(c z + d)^-1 at z, |z| < 1, on part
    tuples with the bits of the Quaternion route; NaN fails each gate."""
    if not z.norm() < 1.0:
        raise ValueError("the Moebius action is defined on the open unit ball")
    p, zp = _matrix(t.m), (z.w, z.x, z.y, z.z)
    w, x, y, s = _qmul(p[8:12], zp)
    w, x, y, s = w + p[12], x + p[13], y + p[14], s + p[15]
    n2 = w * w + x * x + y * y + s * s
    if math.sqrt(n2) <= POLE_TOL:
        raise PoleError("denominator c z + d vanished")
    e, f, g, h = _qmul(p[0:4], zp)
    image = _new(*_qmul((e + p[4], f + p[5], g + p[6], h + p[7]),
                        (w / n2, -x / n2, -y / n2, -s / n2)))
    if not image.norm() < 1.0 + BALL_SLACK:
        raise BallViolationError(
            f"image modulus {image.norm():.17g} escaped the unit ball")
    return image


def _b_minus_conj_c_sq(m: Mat2H) -> float:
    """(m.b - m.c.conjugate()).norm_sq() bit for bit; x - (-y) is x + y."""
    b, c = m.b, m.c
    w, x, y, z = b.w - c.w, b.x + c.x, b.y + c.y, b.z + c.z
    return w * w + x * x + y * y + z * z


def delta(m: Mat2H) -> float:
    return _b_minus_conj_c_sq(m) - (m.a.w - m.d.w) ** 2


def stratum(t: GroupElement) -> tuple[DiagonalizationCase, MoebiusClass]:
    """The diagonalization case (row of the table above) and class of T,
    kept on t (EPS_CLASS is a constant); a MembershipError is not kept."""
    pair = t._stratum
    if pair is None:
        pair = _decide(t.m)
        _set_stratum(t, pair)
    return pair


def _decide(m: Mat2H) -> tuple[DiagonalizationCase, MoebiusClass]:
    eps = EPS_CLASS * (1.0 + m.frobenius())
    b_zero = m.b.norm() <= eps
    c_zero = m.c.norm() <= eps
    if b_zero and c_zero:
        if abs(m.a.w - m.d.w) <= EPS_CLASS:
            return DiagonalizationCase.CASE1, MoebiusClass.SIMPLE_ELLIPTIC
        return DiagonalizationCase.CASE1, MoebiusClass.COMPOUND_ELLIPTIC
    if b_zero or c_zero:
        raise MembershipError(
            "exactly one off-diagonal entry is zero; |b| == |c| fails")
    if math.sqrt(_b_minus_conj_c_sq(m)) <= eps:
        gap = m.d.w * m.d.w - 1.0
        if abs(gap) <= EPS_CLASS:
            return DiagonalizationCase.CASE2, MoebiusClass.SIMPLE_PARABOLIC
        if gap < 0.0:
            return DiagonalizationCase.CASE2, MoebiusClass.SIMPLE_ELLIPTIC
        return DiagonalizationCase.CASE2, MoebiusClass.SIMPLE_LOXODROMIC
    dlt = delta(m)
    if abs(dlt) <= EPS_CLASS:
        return DiagonalizationCase.CASE3, MoebiusClass.COMPOUND_PARABOLIC
    if dlt < 0.0:
        return DiagonalizationCase.CASE3, MoebiusClass.COMPOUND_ELLIPTIC
    return DiagonalizationCase.CASE3, MoebiusClass.COMPOUND_LOXODROMIC


def classify(t: GroupElement) -> MoebiusClass:
    return stratum(t)[1]


def is_elliptic(t: GroupElement) -> bool:
    return classify(t).coarse == "elliptic"


def evidence(t: GroupElement) -> dict:
    """The quantities the classification actually read."""
    m = t.m
    return {
        "a0": m.a.w,
        "d0": m.d.w,
        "b_minus_conj_c_norm": math.sqrt(_b_minus_conj_c_sq(m)),
        "b_norm": m.b.norm(),
        "c_norm": m.c.norm(),
        "delta": delta(m),
    }
