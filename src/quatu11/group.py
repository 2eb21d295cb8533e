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
from dataclasses import dataclass, field

import numpy as np

from .errors import HintExhaustedError, MembershipDriftError, MembershipError
from .mat2h import Mat2H, _from_quaternions
from .quaternion import ONE, Quaternion

MEMBERSHIP_TOL = 1e-9
MAX_HINT_ATTEMPTS = 100_000

J = Mat2H.diag(1.0, -1.0)

__all__ = [
    "GroupElement",
    "J",
    "MEMBERSHIP_TOL",
    "membership_residual",
    "is_member",
    "validate",
    "inverse_u11",
    "conjugate",
    "random_element",
]


def membership_residual(m: Mat2H) -> float:
    """Worst of |a| - |d|, |b| - |c|, |a conj(c) - b conj(d)| and
    ||T* J T - J||_F; NaN if any of them is NaN.

    The other two entry conditions need no term of their own: |a|^2 - |c|^2
    - 1 and conj(a) b - conj(c) d are, bit for bit, the real part of the
    (0,0) entry and the (0,1) entry of T* J T - J.  Plain float arithmetic
    on the 16 components, in the operation order of the Quaternion route:
    conjugates as negated components, the products as Quaternion.__mul__
    and _mul_add form them, J subtracted entry by entry and the Frobenius
    sum taken over a, b, c, d.  The result therefore has the same bits as
    that route while building no Quaternion or Mat2H.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    aw, ax, ay, az = a.w, a.x, a.y, a.z
    bw, bx, by, bz = b.w, b.x, b.y, b.z
    cw, cx, cy, cz = c.w, c.x, c.y, c.z
    dw, dx, dy, dz = d.w, d.x, d.y, d.z
    # imaginary parts of the conjugates, then the negated entries -c and -d
    ax_, ay_, az_ = -ax, -ay, -az
    bx_, by_, bz_ = -bx, -by, -bz
    cx_, cy_, cz_ = -cx, -cy, -cz
    dx_, dy_, dz_ = -dx, -dy, -dz
    ncw, ncx, ncy, ncz = -cw, -cx, -cy, -cz
    ndw = -dw

    na = aw * aw + ax * ax + ay * ay + az * az
    nb = bw * bw + bx * bx + by * by + bz * bz
    nc = cw * cw + cx * cx + cy * cy + cz * cz
    nd = dw * dw + dx * dx + dy * dy + dz * dz
    norm_a_d = abs(math.sqrt(na) - math.sqrt(nd))
    norm_b_c = abs(math.sqrt(nb) - math.sqrt(nc))
    # a conj(c) + b (-conj(d))
    cross = _gram_entry_sq(aw, ax, ay, az, cw, cx_, cy_, cz_,
                           bw, bx, by, bz, ndw, dx, dy, dz, 0.0)
    # T* (J T) - J with T* == [[a*, c*], [b*, d*]], J T == [[a, b], [-c, -d]]
    gram = (_gram_entry_sq(aw, ax_, ay_, az_, aw, ax, ay, az,
                           cw, cx_, cy_, cz_, ncw, ncx, ncy, ncz, 1.0)
            + _gram_entry_sq(aw, ax_, ay_, az_, bw, bx, by, bz,
                             cw, cx_, cy_, cz_, ndw, dx_, dy_, dz_, 0.0)
            + _gram_entry_sq(bw, bx_, by_, bz_, aw, ax, ay, az,
                             dw, dx_, dy_, dz_, ncw, ncx, ncy, ncz, 0.0)
            + _gram_entry_sq(bw, bx_, by_, bz_, bw, bx, by, bz,
                             dw, dx_, dy_, dz_, ndw, dx_, dy_, dz_, -1.0))
    # Every term is >= 0 or NaN, so the sum is NaN exactly when a term is.
    if math.isnan(norm_a_d + norm_b_c + cross + gram):
        return math.nan
    return max(norm_a_d, norm_b_c, math.sqrt(cross), math.sqrt(gram))


def _gram_entry_sq(a, b, c, d, e, f, g, h,
                   a2, b2, c2, d2, e2, f2, g2, h2, j: float) -> float:
    """|p r + q s - j|^2 for p, r, q, s given by components, as _mul_add,
    Quaternion.__sub__ (j is the real part of the J entry) and norm_sq."""
    w = ((a * e - b * f - c * g - d * h)
         + (a2 * e2 - b2 * f2 - c2 * g2 - d2 * h2)) - j
    x = ((a * f + b * e + c * h - d * g)
         + (a2 * f2 + b2 * e2 + c2 * h2 - d2 * g2)) - 0.0
    y = ((a * g - b * h + c * e + d * f)
         + (a2 * g2 - b2 * h2 + c2 * e2 + d2 * f2)) - 0.0
    z = ((a * h + b * g - c * f + d * e)
         + (a2 * h2 + b2 * g2 - c2 * f2 + d2 * e2)) - 0.0
    return w * w + x * x + y * y + z * z


def is_member(m: Mat2H, tol: float = MEMBERSHIP_TOL) -> bool:
    return membership_residual(m) <= tol


@dataclass(frozen=True, slots=True)
class GroupElement:
    """A membership-checked matrix together with its residual."""

    m: Mat2H
    membership_residual: float
    _powers: tuple[Mat2H, Mat2H, Mat2H, Mat2H] | None = field(
        default=None, init=False, repr=False, compare=False)

    def powers(self) -> tuple[Mat2H, Mat2H, Mat2H, Mat2H]:
        """T^2, T^3, T^4 and T^6 from four products, formed on first use."""
        if self._powers is None:
            m = self.m
            m2 = m @ m
            m3 = m2 @ m
            m4 = m3 @ m
            object.__setattr__(self, "_powers", (m2, m3, m4, m4 @ m2))
        return self._powers


def validate(m: Mat2H, tol: float = MEMBERSHIP_TOL) -> GroupElement:
    residual = membership_residual(m)
    if not residual <= tol:
        raise MembershipError(
            f"matrix is not in the group: residual {residual:.3e} > {tol:.3e}")
    return GroupElement(m, residual)


def _j_adjoint(m: Mat2H) -> Mat2H:
    """J M* J, written out entrywise; the inverse of M when M is a member."""
    return _from_quaternions(m.a.conjugate(), -m.c.conjugate(),
                             -m.b.conjugate(), m.d.conjugate())


def inverse_u11(t: GroupElement) -> GroupElement:
    """Group inverse J T* J; no linear solve needed."""
    inv = _j_adjoint(t.m)
    return GroupElement(inv, membership_residual(inv))


def conjugate(t: GroupElement, g: GroupElement,
              tol: float = MEMBERSHIP_TOL) -> GroupElement:
    product = g.m @ t.m @ _j_adjoint(g.m)
    residual = membership_residual(product)
    if not residual <= 100.0 * tol:
        raise MembershipDriftError(
            f"conjugation drifted off the group: residual {residual:.3e}")
    return GroupElement(product, residual)


# -- random sampling ------------------------------------------------------


def _unit_vector(rng, k: int) -> list[float]:
    """A uniform point on the unit sphere in R^k, by rejecting tiny draws."""
    v = rng.standard_normal(k)
    n = float(np.linalg.norm(v))
    while n < 1e-6:
        v = rng.standard_normal(k)
        n = float(np.linalg.norm(v))
    return [float(p) / n for p in v]


def _unit_quaternion(rng) -> Quaternion:
    return Quaternion(*_unit_vector(rng, 4))


def _unit_with_bounded_angle(rng, max_re: float) -> Quaternion:
    u = _unit_quaternion(rng)
    while abs(u.w) > max_re:
        u = _unit_quaternion(rng)
    return u


def _boost(t: float) -> Mat2H:
    ch, sh = math.cosh(t), math.sinh(t)
    return Mat2H(Quaternion.real(ch), Quaternion.real(sh),
                 Quaternion.real(sh), Quaternion.real(ch))


def _boost_parameter(rng, floor: float = 0.0) -> float:
    # Clipped so entry magnitudes of T^3 stay near 1e3; the downstream
    # power-law comparisons are absolute at 1e-7 and sixth powers of larger
    # boosts would push cancellation noise past that.
    return min(abs(float(rng.standard_normal())) + floor, 2.25)


def _generic(rng) -> Mat2H:
    left = Mat2H.diag(_unit_quaternion(rng), _unit_quaternion(rng))
    right = Mat2H.diag(_unit_quaternion(rng), _unit_quaternion(rng))
    return left @ _boost(_boost_parameter(rng)) @ right


def _diag_unit_conjugate(rng, base: Mat2H) -> Mat2H:
    g = Mat2H.diag(_unit_quaternion(rng), _unit_quaternion(rng))
    return g @ base @ g.adjoint()


def _parabolic_base(rng) -> Mat2H:
    mu = float(rng.standard_normal())
    while abs(mu) < 0.05:
        mu = float(rng.standard_normal())
    sign = -1.0 if rng.random() < 0.5 else 1.0
    base = Mat2H(Quaternion(1.0, mu), Quaternion(0.0, -mu),
                 Quaternion(0.0, mu), Quaternion(1.0, -mu))
    return sign * base


def _candidate(rng, hint: str | None) -> Mat2H:
    if hint is None:
        return _generic(rng)
    if hint == "SimpleElliptic":
        u = _unit_with_bounded_angle(rng, 0.9)
        g = _unit_quaternion(rng)
        base = Mat2H.diag(u, g * u * g.conjugate())
    elif hint == "CompoundElliptic":
        u = _unit_with_bounded_angle(rng, 0.9)
        v = _unit_with_bounded_angle(rng, 0.9)
        while abs(u.w - v.w) < 0.1:
            v = _unit_with_bounded_angle(rng, 0.9)
        base = Mat2H.diag(u, v)
    elif hint == "SimpleParabolic":
        return _diag_unit_conjugate(rng, _parabolic_base(rng))
    elif hint == "CompoundParabolic":
        # Not reachable by conjugating the simple family: b == conj(c) and
        # Re a == Re d survive every conjugation once delta == 0.  Instead
        # tune the boost inside D1 B(t) D2, where delta becomes
        # sinh^2 |u1 u4 - conj(u2 u3)|^2 - cosh^2 (Re u1 u3 - Re u2 u4)^2,
        # so tanh t matching the ratio of the two factors kills it exactly.
        while True:
            u1, u2, u3, u4 = (_unit_quaternion(rng) for _ in range(4))
            kappa1 = (u1 * u4 - (u2 * u3).conjugate()).norm()
            kappa2 = abs((u1 * u3).w - (u2 * u4).w)
            if kappa1 > 1e-3 and 0.05 <= kappa2 / kappa1 <= 0.95:
                break
        t = math.atanh(kappa2 / kappa1)
        for _ in range(2):  # polish the root of delta(t) below roundoff
            sh, ch = math.sinh(t), math.cosh(t)
            dlt = (sh * kappa1) ** 2 - (ch * kappa2) ** 2
            slope = 2.0 * sh * ch * (kappa1 ** 2 - kappa2 ** 2)
            t -= dlt / slope
        left = Mat2H.diag(u1, u2)
        right = Mat2H.diag(u3, u4)
        return left @ _boost(t) @ right
    elif hint == "SimpleLoxodromic":
        sign = -1.0 if rng.random() < 0.5 else 1.0
        return _diag_unit_conjugate(rng, sign * _boost(_boost_parameter(rng, 0.3)))
    elif hint == "CompoundLoxodromic":
        left = Mat2H.diag(_unit_quaternion(rng), _unit_quaternion(rng))
        right = Mat2H.diag(_unit_quaternion(rng), _unit_quaternion(rng))
        return left @ _boost(_boost_parameter(rng, 0.3)) @ right
    else:
        raise ValueError(f"unknown class hint {hint!r}")
    conjugator = _generic(rng)
    return conjugator @ base @ _j_adjoint(conjugator)


def random_element(seed, class_hint: str | None = None,
                   tol: float = MEMBERSHIP_TOL,
                   max_attempts: int = MAX_HINT_ATTEMPTS) -> GroupElement:
    """Seeded random group element, optionally from a requested class.

    Generic samples are D1 @ B(t) @ D2 with unit-quaternion diagonals and a
    hyperbolic boost B(t), t = |N(0, 1)|.  Class hints draw from seed
    families tailored to the class and reject until the classifier agrees;
    the parabolic families are constructed directly since rejection alone
    would never hit a measure-zero stratum.
    """
    from .moebius import MoebiusClass, classify  # late import, avoids a cycle

    if class_hint is not None:
        valid = {cls.value for cls in MoebiusClass}
        if class_hint not in valid:
            raise ValueError(f"unknown class hint {class_hint!r}")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        mat = _candidate(rng, class_hint)
        residual = membership_residual(mat)
        if not residual <= tol:
            continue
        element = GroupElement(mat, residual)
        if class_hint is None or classify(element).value == class_hint:
            return element
    raise HintExhaustedError(
        f"no {class_hint} element found in {max_attempts} attempts")
