"""Moebius action on the quaternionic unit ball and its six-way classification.

A group element T = [[a, b], [c, d]] acts by g(z) = (a z + b)(c z + d)^-1,
preserving the open unit ball; the kernel of the action is {I, -I}.
`_derive` decides, once per element, the conjugation class and with it the
diagonalization case (the row below), from the off-diagonal pattern
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

from ._thresholds import BALL_SLACK, EPS_CLASS, POLE_TOL
from .errors import BallViolationError, MembershipError, PoleError
from .group import GroupElement, _set_derived
from .mat2h import Mat2H, _frobenius
from .quaternion import (Quaternion, _add, _conj, _inverse, _norm, _norm_sq,
                         _qmul, _sub, _tuple_new)

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
    p = t.m._p
    den = _add(_qmul(p[8:12], z), p[12:16])
    if _norm(den) <= POLE_TOL:
        raise PoleError("denominator c z + d vanished")
    image = _tuple_new(Quaternion, _qmul(_add(_qmul(p[0:4], z), p[4:8]),
                                         _inverse(den)))
    if not image.norm() < 1.0 + BALL_SLACK:
        raise BallViolationError(
            f"image modulus {image.norm():.17g} escaped the unit ball")
    return image


def _entry_eps(p: tuple) -> float:
    """EPS_CLASS * (1 + ||M||_F) on the 16 parts p: inf or NaN exactly
    when the norm is."""
    return EPS_CLASS * (1.0 + _frobenius(p))


def _gap_delta(p: tuple) -> tuple[float, float]:
    """|b - conj(c)|^2 and delta for the 16 parts p."""
    gap = _norm_sq(_sub(p[4:8], _conj(p[8:12])))
    return gap, gap - (p[0] - p[12]) ** 2


def delta(m: Mat2H) -> float:
    return _gap_delta(m._p)[1]


def _derive(p: tuple) -> tuple:
    """(|b - conj(c)|^2, delta, |b|, |c|, (case, class)) of the matrix with
    the 16 parts p, the pair None when exactly one of b, c is zero."""
    gap, dlt = _gap_delta(p)
    eps = _entry_eps(p)
    nb, nc = _norm(p[4:8]), _norm(p[8:12])
    if nb <= eps and nc <= eps:
        pair = (DiagonalizationCase.CASE1,
                MoebiusClass.SIMPLE_ELLIPTIC if abs(p[0] - p[12]) <= EPS_CLASS
                else MoebiusClass.COMPOUND_ELLIPTIC)
    elif nb <= eps or nc <= eps:
        pair = None
    elif math.sqrt(gap) <= eps:
        d2 = p[12] * p[12] - 1.0
        pair = (DiagonalizationCase.CASE2,
                MoebiusClass.SIMPLE_PARABOLIC if abs(d2) <= EPS_CLASS
                else MoebiusClass.SIMPLE_ELLIPTIC if d2 < 0.0
                else MoebiusClass.SIMPLE_LOXODROMIC)
    else:
        pair = (DiagonalizationCase.CASE3,
                MoebiusClass.COMPOUND_PARABOLIC if abs(dlt) <= EPS_CLASS
                else MoebiusClass.COMPOUND_ELLIPTIC if dlt < 0.0
                else MoebiusClass.COMPOUND_LOXODROMIC)
    return gap, dlt, nb, nc, pair


def _derived(t: GroupElement) -> tuple:
    """_derive of T, formed on first use and kept on t for every reader."""
    record = t._derived
    if record is None:
        record = _derive(t.m._p)
        _set_derived(t, record)
    return record


def stratum(t: GroupElement) -> tuple[DiagonalizationCase, MoebiusClass]:
    """The diagonalization case (row of the table above) and class of T;
    MembershipError, on every call, if exactly one of b, c is zero."""
    pair = _derived(t)[4]
    if pair is None:
        raise MembershipError(
            "exactly one off-diagonal entry is zero; |b| == |c| fails")
    return pair


def classify(t: GroupElement) -> MoebiusClass:
    return stratum(t)[1]


def is_elliptic(t: GroupElement) -> bool:
    return classify(t).coarse == "elliptic"


def evidence(t: GroupElement) -> dict:
    """The quantities the classification actually read."""
    gap, dlt, nb, nc, _pair = _derived(t)
    p = t.m._p
    return {"a0": p[0], "d0": p[12],
            "b_minus_conj_c_norm": math.sqrt(gap), "b_norm": nb,
            "c_norm": nc, "delta": dlt}
