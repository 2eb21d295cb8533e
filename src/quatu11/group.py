"""Membership, inversion, and sampling for the quaternionic group U(1,1).

A matrix T = [[a, b], [c, d]] belongs to the group when T* J T == J for
J = diag(1, -1), equivalently when the entry conditions

    |a| == |d|,  |b| == |c|,  |a|^2 - |c|^2 == 1,
    conj(a) b == conj(c) d,   a conj(c) == b conj(d)

all hold.  The reported residual is the worst of ||T* J T - J||_F and the
three entry conditions that are not themselves entries of T* J T - J.
"""

from __future__ import annotations

import math

from ._thresholds import KAPPA1_FLOOR, MEMBERSHIP_TOL, ROW_FLOOR
from .errors import HintExhaustedError, MembershipDriftError, MembershipError
from .mat2h import Mat2H, _from_parts, _matmul
from .quaternion import Record, _conj, _qmul

MAX_HINT_ATTEMPTS = 100_000

J = Mat2H.diag(1.0, -1.0)

__all__ = [
    "GroupElement",
    "J",
    "MEMBERSHIP_TOL",
    "membership_residual",
    "validate",
    "inverse_u11",
    "conjugate",
    "random_element",
]


def membership_residual(m: Mat2H) -> float:
    """Worst of |a| - |d|, |b| - |c|, |a conj(c) - b conj(d)| and
    ||T* J T - J||_F; NaN if any of them is NaN."""
    return _residual(m._p)


def _residual(p: tuple) -> float:
    """membership_residual of the matrix with the 16 parts p.

    The other two entry conditions need no term of their own: |a|^2 - |c|^2
    - 1 and conj(a) b - conj(c) d are, bit for bit, the real part of the
    (0,0) entry and the (0,1) entry of T* J T - J.  Plain float arithmetic
    on the 16 parts, summed as the Quaternion route sums them (conjugates
    as negated parts, products as mat2h._matmul, the Frobenius sum over a,
    b, c, d), so the result has that route's bits without its objects.
    """
    (aw, ax, ay, az, bw, bx, by, bz,
     cw, cx, cy, cz, dw, dx, dy, dz) = p
    # imaginary parts of conj(c), and -d.w
    cx_, cy_, cz_ = -cx, -cy, -cz
    ndw = -dw

    na = aw * aw + ax * ax + ay * ay + az * az
    nb = bw * bw + bx * bx + by * by + bz * bz
    nc = cw * cw + cx * cx + cy * cy + cz * cz
    nd = dw * dw + dx * dx + dy * dy + dz * dz
    norm_a_d = abs(math.sqrt(na) - math.sqrt(nd))
    norm_b_c = abs(math.sqrt(nb) - math.sqrt(nc))
    # a conj(c) + b (-conj(d)), summed as an entry of _matmul
    w = (aw*cw - ax*cx_ - ay*cy_ - az*cz_) + (bw*ndw - bx*dx - by*dy - bz*dz)
    x = (aw*cx_ + ax*cw + ay*cz_ - az*cy_) + (bw*dx + bx*ndw + by*dz - bz*dy)
    y = (aw*cy_ - ax*cz_ + ay*cw + az*cx_) + (bw*dy - bx*dz + by*ndw + bz*dx)
    z = (aw*cz_ + ax*cy_ - ay*cx_ + az*cw) + (bw*dz + bx*dy - by*dx + bz*ndw)
    cross = w * w + x * x + y * y + z * z
    # T* (J T) - J with T* == [[a*, c*], [b*, d*]], J T == [[a, b], [-c, -d]];
    # J's zero parts need no subtraction, as q - 0.0 == q for every float q
    (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3) = _matmul(
        (aw, -ax, -ay, -az, cw, cx_, cy_, cz_,
         bw, -bx, -by, -bz, dw, -dx, -dy, -dz),
        (aw, ax, ay, az, bw, bx, by, bz,
         -cw, cx_, cy_, cz_, ndw, -dx, -dy, -dz))
    a0, d0 = a0 - 1.0, d0 + 1.0  # d0 - (-1.0) is d0 + 1.0
    gram = ((a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3)
            + (b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3)
            + (c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3)
            + (d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3))
    # Every term is >= 0 or NaN, so the sum is NaN exactly when a term is.
    if math.isnan(norm_a_d + norm_b_c + cross + gram):
        return math.nan
    return max(norm_a_d, norm_b_c, math.sqrt(cross), math.sqrt(gram))


class GroupElement(Record):
    """A membership-checked matrix together with its residual; the caches
    _powers, _conjugate and _derived (|b - conj(c)|^2, delta, |b|, |c| and
    the stratum) are filled by invariants, conjugate and moebius."""

    __slots__ = ("m", "membership_residual", "_powers", "_conjugate",
                 "_derived")

    def __init__(self, m: Mat2H, membership_residual: float):
        _set_m(self, m)
        _set_membership_residual(self, membership_residual)
        _set_powers(self, None)
        _set_conjugate(self, None)
        _set_derived(self, None)


(_set_m, _set_membership_residual, _set_powers, _set_conjugate,
 _set_derived) = GroupElement._slot_setters()


def validate(m: Mat2H, tol: float = MEMBERSHIP_TOL) -> GroupElement:
    residual = membership_residual(m)
    if not residual <= tol:
        raise MembershipError(
            f"matrix is not in the group: residual {residual:.3e} > {tol:.3e}")
    return GroupElement(m, residual)


def _j_adjoint_parts(p: tuple) -> tuple:
    """J M* J on the 16 parts of M, the inverse of M when M is a member:
    conj(a), -conj(c), -conj(b), conj(d), where -conj(q) is (-w, x, y, z)."""
    (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3) = p
    return (a0, -a1, -a2, -a3, -c0, c1, c2, c3,
            -b0, b1, b2, b3, d0, -d1, -d2, -d3)


def _j_adjoint(m: Mat2H) -> Mat2H:
    return _from_parts(_j_adjoint_parts(m._p))


def inverse_u11(t: GroupElement) -> GroupElement:
    """Group inverse J T* J; no linear solve needed."""
    inv = _j_adjoint(t.m)
    return GroupElement(inv, membership_residual(inv))


def conjugate(t: GroupElement, g: GroupElement,
              tol: float = MEMBERSHIP_TOL) -> GroupElement:
    """G T G^-1 with the bits of g.m @ t.m @ _j_adjoint(g.m); t keeps it
    with g, so a second call with the same g object reuses it.  The drift
    check (residual <= 100 tol) runs on every call."""
    cached = t._conjugate
    if cached is None or cached[0] is not g:
        gp = g.m._p
        product = _matmul(_matmul(gp, t.m._p), _j_adjoint_parts(gp))
        cached = (g, GroupElement(_from_parts(product), _residual(product)))
        _set_conjugate(t, cached)
    residual = cached[1].membership_residual
    if not residual <= 100.0 * tol:
        raise MembershipDriftError(
            f"conjugation drifted off the group: residual {residual:.3e}")
    return cached[1]


# -- random sampling ------------------------------------------------------
# On 4- and 16-tuples of parts, each product summed as the Quaternion and
# Mat2H operation it stands for: the bits of that route (tests/test_group.py).


def _unit_vectors(rng, count: int, dim: int = 4) -> list:
    """count uniform points on the unit sphere in R^dim from blocks of
    normals; a draw of norm < ROW_FLOOR gives way to the next, so the
    normals, their order and the end state are those of count single draws.
    Each squared norm is numpy's dot of a row with itself, as for one draw."""
    units = []
    while len(units) < count:
        rows = rng.standard_normal((count - len(units), dim))
        for row, v in zip(rows.tolist(), rows):
            n = math.sqrt(v.dot(v))
            if not n < ROW_FLOOR:
                units.append(tuple([p / n for p in row]))
    return units


def _unit_with_bounded_angle(rng, max_re: float) -> tuple:
    # one draw at a time: the number of rejections is not known in advance
    u, = _unit_vectors(rng, 1)
    while abs(u[0]) > max_re:
        u, = _unit_vectors(rng, 1)
    return u


def _boost(t: float) -> tuple:
    ch, sh = math.cosh(t), math.sinh(t)
    return (ch, 0.0, 0.0, 0.0, sh, 0.0, 0.0, 0.0,
            sh, 0.0, 0.0, 0.0, ch, 0.0, 0.0, 0.0)


def _boost_parameter(rng, floor: float = 0.0) -> float:
    # Clipped so entry magnitudes of T^3 stay near 1e3; the downstream
    # power-law comparisons are absolute at 1e-7 and sixth powers of larger
    # boosts would push cancellation noise past that.
    return min(abs(float(rng.standard_normal())) + floor, 2.25)


def _sandwich(p: tuple, q: tuple, m: tuple, r: tuple, s: tuple) -> tuple:
    """diag(p, q) m diag(r, s) as (p m.a) r, (p m.b) s, (q m.c) r, (q m.d) s;
    the two matmuls would also add a product with a zero entry, which for
    finite entries flips at most the sign of an exact zero, so == holds."""
    return (_qmul(_qmul(p, m[0:4]), r) + _qmul(_qmul(p, m[4:8]), s)
            + _qmul(_qmul(q, m[8:12]), r) + _qmul(_qmul(q, m[12:16]), s))


def _generic(rng, floor: float = 0.0) -> tuple:
    p, q, r, s = _unit_vectors(rng, 4)
    return _sandwich(p, q, _boost(_boost_parameter(rng, floor)), r, s)


def _diag_unit_conjugate(rng, base: tuple) -> tuple:
    p, q = _unit_vectors(rng, 2)
    return _sandwich(p, q, base, _conj(p), _conj(q))


def _parabolic_base(rng) -> tuple:
    mu = float(rng.standard_normal())
    while abs(mu) < 0.05:
        mu = float(rng.standard_normal())
    sign = -1.0 if rng.random() < 0.5 else 1.0
    # sign * base scales each part, as Mat2H.__rmul__ does
    return tuple([sign * p for p in (1.0, mu, 0.0, 0.0, 0.0, -mu, 0.0, 0.0,
                                     0.0, mu, 0.0, 0.0, 1.0, -mu, 0.0, 0.0)])


def _candidate(rng, hint: str | None) -> tuple:
    if hint is None:
        return _generic(rng)
    if hint == "SimpleElliptic":
        u = _unit_with_bounded_angle(rng, 0.9)
        g, = _unit_vectors(rng, 1)
        base = u + (0.0,) * 8 + _qmul(_qmul(g, u), _conj(g))
    elif hint == "CompoundElliptic":
        u = _unit_with_bounded_angle(rng, 0.9)
        v = _unit_with_bounded_angle(rng, 0.9)
        while abs(u[0] - v[0]) < 0.1:
            v = _unit_with_bounded_angle(rng, 0.9)
        base = u + (0.0,) * 8 + v
    elif hint == "SimpleParabolic":
        return _diag_unit_conjugate(rng, _parabolic_base(rng))
    elif hint == "CompoundParabolic":
        # Not reachable by conjugating the simple family: b == conj(c) and
        # Re a == Re d survive every conjugation once delta == 0.  Instead
        # tune the boost inside D1 B(t) D2, where delta becomes
        # sinh^2 |u1 u4 - conj(u2 u3)|^2 - cosh^2 (Re u1 u3 - Re u2 u4)^2,
        # so tanh t matching the ratio of the two factors kills it exactly.
        while True:
            u1, u2, u3, u4 = _unit_vectors(rng, 4)
            w, x, y, z = [p - q for p, q in
                          zip(_qmul(u1, u4), _conj(_qmul(u2, u3)))]
            kappa1 = math.sqrt(w * w + x * x + y * y + z * z)
            kappa2 = abs(_qmul(u1, u3)[0] - _qmul(u2, u4)[0])
            if kappa1 > KAPPA1_FLOOR and 0.05 <= kappa2 / kappa1 <= 0.95:
                break
        t = math.atanh(kappa2 / kappa1)
        for _ in range(2):  # polish the root of delta(t) below roundoff
            sh, ch = math.sinh(t), math.cosh(t)
            dlt = (sh * kappa1) ** 2 - (ch * kappa2) ** 2
            slope = 2.0 * sh * ch * (kappa1 ** 2 - kappa2 ** 2)
            t -= dlt / slope
        return _sandwich(u1, u2, _boost(t), u3, u4)
    elif hint == "SimpleLoxodromic":
        sign = -1.0 if rng.random() < 0.5 else 1.0
        base = _boost(_boost_parameter(rng, 0.3))
        return _diag_unit_conjugate(rng, tuple([sign * p for p in base]))
    elif hint == "CompoundLoxodromic":
        return _generic(rng, 0.3)
    else:
        raise ValueError(f"unknown class hint {hint!r}")
    conjugator = _generic(rng)
    return _matmul(_matmul(conjugator, base), _j_adjoint_parts(conjugator))


def random_element(seed, class_hint: str | None = None,
                   tol: float = MEMBERSHIP_TOL,
                   max_attempts: int = MAX_HINT_ATTEMPTS) -> GroupElement:
    """Seeded random group element, optionally from a requested class.

    Generic samples are D1 @ B(t) @ D2 with unit-quaternion diagonals and a
    hyperbolic boost B(t), t = min(|N(0, 1)| + floor, 2.25) (see
    `_boost_parameter`), with floor 0.3 for the loxodromic hints and 0
    otherwise.  Class hints draw from seed families tailored to the class
    and reject until the classifier agrees; the parabolic families are
    constructed directly since rejection alone would never hit a
    measure-zero stratum.
    """
    import numpy as np

    if class_hint is not None:
        # late import, avoids a cycle; only a hinted draw classifies
        from .moebius import MoebiusClass, classify
        valid = {cls.value for cls in MoebiusClass}
        if class_hint not in valid:
            raise ValueError(f"unknown class hint {class_hint!r}")
    words = [seed] if type(seed) is int else seed
    if type(words) in (list, tuple) and all(
            type(w) is int and 0 <= w < 2**32 for w in words):
        seed = np.array(words, dtype=np.uint32)  # SeedSequence's own words
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        parts = _candidate(rng, class_hint)
        residual = _residual(parts)
        if not residual <= tol:
            continue
        element = GroupElement(_from_parts(parts), residual)
        if class_hint is None or classify(element).value == class_hint:
            return element
    what = (f"group element within tol {tol:.3e}" if class_hint is None
            else f"{class_hint} element")
    raise HintExhaustedError(f"no {what} found in {max_attempts} attempts")
