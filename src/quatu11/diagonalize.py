"""Constructive diagonalization of elliptic group elements.

Every elliptic T is conjugate, inside the group, to diag(s, s') with s, s'
on the unit right-spectrum spheres.  Three constructions cover the elliptic
strata:

  Case 1: b, c within eps of 0; X = I, D = diag(a, d).
  Case 2: b == conj(c) != 0, d0^2 < 1.  A unit rotation absorbs the phase of
          c, a similarity solve rotates d onto its class representative in
          the i-slice, and an explicit J-unitary Z with real diagonal and
          imaginary off-diagonal finishes the split.
  Case 3: b != conj(c) != 0, delta < 0.  The conjugator rows are built from
          similarity solves against u = -(b - conj(c)) conj(p) / |b - conj(c)|^2
          for p = 2 s0 conj(c) - b conj(d) - conj(c) d, one per sphere, then
          rescaled so the row norms satisfy the group conditions.

The Case-3 rescaling relies on three facts checked at runtime: the ratio
attached to the larger-real-part sphere has modulus below 1 (Claim A), the
other has modulus above 1 (Claim B), and the two ratios are inverse to each
other under conjugation (Claim C).
"""

from __future__ import annotations

import math

from .errors import CaseMismatchError, ClaimViolationError, NotEllipticError
from .group import GroupElement, _j_adjoint, membership_residual, validate
from .mat2h import Mat2H
from .moebius import DiagonalizationCase, delta, stratum
from .quaternion import QI, Quaternion, Record, solve_similarity

CLAIM_TOL = 1e-6

__all__ = ["DiagonalizationCase", "DiagonalizationResult",
           "diagonalize_elliptic"]


class DiagonalizationResult(Record):
    __slots__ = ("x", "d", "residual_conjugation", "residual_membership",
                 "case_used", "claim_residual")

    def __init__(self, x: GroupElement, d: Mat2H,
                 residual_conjugation: float, residual_membership: float,
                 case_used: DiagonalizationCase, claim_residual: float = 0.0):
        _set_x(self, x)
        _set_d(self, d)
        _set_residual_conjugation(self, residual_conjugation)
        _set_residual_membership(self, residual_membership)
        _set_case_used(self, case_used)
        _set_claim_residual(self, claim_residual)

    def to_json(self) -> dict:
        return {
            "x": self.x.m.to_json(),
            "d": self.d.to_json(),
            "residual_conjugation": self.residual_conjugation,
            "residual_membership": self.residual_membership,
            "case": self.case_used.value,
            "claim_residual": self.claim_residual,
        }


(_set_x, _set_d, _set_residual_conjugation, _set_residual_membership,
 _set_case_used, _set_claim_residual) = DiagonalizationResult._slot_setters()


def _conjugation_residual(x: GroupElement, t: GroupElement, d: Mat2H) -> float:
    return (x.m @ t.m @ _j_adjoint(x.m) - d).frobenius()


def diagonalize_elliptic(t: GroupElement) -> DiagonalizationResult:
    """Conjugator X and diagonal D with X T X^-1 == D, for elliptic T."""
    case, cls = stratum(t)
    if cls.coarse != "elliptic":
        raise NotEllipticError("only elliptic elements diagonalize over the "
                               "unit spectrum")
    if case is DiagonalizationCase.CASE1:
        d = Mat2H.diag(t.m.a, t.m.d)
        return DiagonalizationResult(GroupElement(Mat2H.identity(), 0.0), d,
                                     (t.m - d).frobenius(), 0.0,
                                     DiagonalizationCase.CASE1)
    if case is DiagonalizationCase.CASE2:
        return _case2(t)
    return _case3(t)


def _case2(t: GroupElement) -> DiagonalizationResult:
    """Diagonalize T with b == conj(c) != 0 and d0^2 < 1."""
    m = t.m
    d0 = m.d.w

    c_mod = m.c.norm()
    phase = m.c * (1.0 / c_mod)
    x1 = Mat2H.diag(phase, 1.0)
    # x1 T x1^-1 == [[conj(d), |c|], [|c|, d]]; only d survives below.

    lam1 = math.sqrt(1.0 - d0 * d0)
    lam2 = math.sqrt(1.0 - d0 * d0 + c_mod * c_mod)
    target = Quaternion(d0, lam2)
    y1 = solve_similarity(m.d.conjugate(), target).conjugate()
    y = Mat2H.diag(y1, y1)

    k = 1.0 / math.sqrt(2.0 * lam1 * (lam1 + lam2))
    z = Mat2H(Quaternion.real(k * (lam1 + lam2)), QI * (-k * c_mod),
              QI * (k * c_mod), Quaternion.real(k * (lam1 + lam2)))

    x = validate(z @ y @ x1, CLAIM_TOL)
    d = Mat2H.diag(Quaternion(d0, lam1), Quaternion(d0, -lam1))
    return DiagonalizationResult(x, d, _conjugation_residual(x, t, d),
                                 x.membership_residual,
                                 DiagonalizationCase.CASE2)


def _case3(t: GroupElement) -> DiagonalizationResult:
    """Diagonalize T with b != conj(c) != 0 and delta < 0."""
    m = t.m
    bc = m.b - m.c.conjugate()
    dlt = delta(m)

    a0, d0 = m.a.w, m.d.w
    split = math.sqrt(-dlt)
    sphere = _unit_point(0.5 * (a0 + d0 + split))
    sphere_p = _unit_point(0.5 * (a0 + d0 - split))

    def momentum(s0: float) -> Quaternion:
        return (2.0 * s0) * m.c.conjugate() - m.b * m.d.conjugate() \
            - m.c.conjugate() * m.d

    p, pp = momentum(sphere.w), momentum(sphere_p.w)
    nbc = bc.norm()
    claim = max(abs(p.norm() - nbc), abs(pp.norm() - nbc))

    if a0 > d0:
        first, second = (sphere, p), (sphere_p, pp)
    else:
        first, second = (sphere_p, pp), (sphere, p)

    def row_seed(pair):
        sigma, pv = pair
        u = (-1.0 / (nbc * nbc)) * (bc * pv.conjugate())
        x = solve_similarity(sigma, u)
        ratio = (bc * pv.inverse() + m.a) * m.c.inverse()
        return x, ratio

    x1_unit, ratio1 = row_seed(first)
    margin1 = 1.0 - ratio1.norm_sq()
    if margin1 <= 1e-12:
        raise ClaimViolationError(
            f"Claim A failed: |ratio|^2 = {ratio1.norm_sq():.17g} not below 1")
    x1 = x1_unit * (1.0 / math.sqrt(margin1))
    x2 = -(x1 * ratio1)

    x3_unit, ratio2 = row_seed(second)
    margin2 = ratio2.norm_sq() - 1.0
    if margin2 <= 1e-12:
        raise ClaimViolationError(
            f"Claim B failed: |ratio|^2 = {ratio2.norm_sq():.17g} not above 1")
    x3 = x3_unit * (1.0 / math.sqrt(margin2))
    x4 = -(x3 * ratio2)

    claim = max(claim, (ratio1 * ratio2.conjugate() - 1.0).norm())
    claim = max(claim,
                abs(x1.norm() - x4.norm()),
                (x1 * x3.conjugate() - x2 * x4.conjugate()).norm(),
                (x1.conjugate() * x2 - x3.conjugate() * x4).norm())
    if claim > CLAIM_TOL:
        raise ClaimViolationError(f"claim residual {claim:.3e} exceeds {CLAIM_TOL}")

    xmat = Mat2H(x1, x2, x3, x4)
    residual = membership_residual(xmat)
    if residual > CLAIM_TOL:
        raise ClaimViolationError(
            f"conjugator membership residual {residual:.3e}")
    x = GroupElement(xmat, residual)
    d = Mat2H.diag(first[0], second[0])
    return DiagonalizationResult(x, d, _conjugation_residual(x, t, d),
                                 residual, DiagonalizationCase.CASE3, claim)


def _unit_point(s0: float) -> Quaternion:
    radicand = 1.0 - s0 * s0
    if radicand < -1e-9:
        raise CaseMismatchError(f"spectrum point {s0:.17g} left the unit circle")
    if radicand <= 1e-12:
        # sqrt is non-Lipschitz at the degenerate point: 1e-15 of roundoff
        # in delta would otherwise smear into a 3e-8 imaginary part.
        return Quaternion(s0, 0.0)
    return Quaternion(s0, math.sqrt(radicand))
