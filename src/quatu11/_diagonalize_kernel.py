"""Cases 2 and 3 of `diagonalize_elliptic` on the float parts of the entries.

Every sum is formed in the order the Quaternion and Mat2H operations of the
construction form it, zero parts included where they can set the sign of a
zero, so the result has the bits of that route (the Quaternion-form bodies
live on as the bit reference in tests/test_diagonalize.py).  T's entries
are slices of its parts; Quaternions are built only for the points of D
and for `quaternion.solve_similarity`, which runs in its Quaternion form.
`diagonalize_elliptic` imports this module on its first Case-2 or Case-3
element.
"""

from __future__ import annotations

import math
import operator

from ._thresholds import CLAIM_MARGIN, CLAIM_TOL, RADICAND_FLOOR, UNIT_SNAP
from .diagonalize import DiagonalizationResult
from .errors import CaseMismatchError, ClaimViolationError
from .group import (GroupElement, _conjugate_parts, membership_residual,
                    validate)
from .mat2h import Mat2H, _frobenius, _from_parts, _matmul
from .moebius import DiagonalizationCase, _derived
from .quaternion import (Quaternion, _add, _conj, _inverse, _neg, _norm,
                         _norm_sq, _qmul, _scaled, _sub, _tuple_new,
                         solve_similarity)


def _conjugation_residual(x: tuple, m: Mat2H, d: Mat2H) -> float:
    """||X M X^-1 - D||_F for X given as a 16-tuple, with the bits of the
    Mat2H route."""
    xmx = _conjugate_parts(x, m._p)
    return _frobenius(tuple(map(operator.sub, xmx, d._p)))


def case2(t: GroupElement) -> DiagonalizationResult:
    """Diagonalize T with b == conj(c) != 0 and d0^2 < 1."""
    m = t.m
    d0, d1, d2, d3 = m._p[12:16]

    c = m._p[8:12]
    c_mod = _norm(c)
    phase = _scaled(c, 1.0 / c_mod)
    # x1 = diag(phase, 1) and x1 T x1^-1 == [[conj(d), |c|], [|c|, d]];
    # only d survives below.

    lam1 = math.sqrt(1.0 - d0 * d0)
    lam2 = math.sqrt(1.0 - d0 * d0 + c_mod * c_mod)
    # y = conj(solve_similarity(conj(d), d0 + lam2 i))
    y = solve_similarity(Quaternion(d0, -d1, -d2, -d3), Quaternion(d0, lam2))
    y0, y1, y2, y3 = _conj(y)

    k = 1.0 / math.sqrt(2.0 * lam1 * (lam1 + lam2))
    # X = z diag(y, y) x1 with z == [[k (lam1 + lam2), -k |c| i],
    # [k |c| i, k (lam1 + lam2)]]: real entries padded as Quaternion.real,
    # i s as QI * s forms it, (0.0 s, s, 0.0 s, 0.0 s), and the zero
    # entries of the diagonal matrices kept, as their products can set the
    # sign of a zero.
    z0 = k * (lam1 + lam2)
    s, s_ = -k * c_mod, k * c_mod
    x = _matmul(_matmul((z0, 0.0, 0.0, 0.0, 0.0 * s, s, 0.0 * s, 0.0 * s,
                         0.0 * s_, s_, 0.0 * s_, 0.0 * s_, z0, 0.0, 0.0, 0.0),
                        (y0, y1, y2, y3, 0.0, 0.0, 0.0, 0.0,
                         0.0, 0.0, 0.0, 0.0, y0, y1, y2, y3)),
                phase + (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                         1.0, 0.0, 0.0, 0.0))
    xe = validate(_from_parts(x), CLAIM_TOL)
    d = Mat2H.diag(Quaternion(d0, lam1), Quaternion(d0, -lam1))
    return DiagonalizationResult(xe, d, _conjugation_residual(x, m, d),
                                 xe.membership_residual,
                                 DiagonalizationCase.CASE2)


def _unit_point(s0: float) -> Quaternion:
    radicand = 1.0 - s0 * s0
    if radicand < RADICAND_FLOOR:
        raise CaseMismatchError(f"spectrum point {s0:.17g} left the unit circle")
    if radicand <= UNIT_SNAP:
        # sqrt is non-Lipschitz at the degenerate point: 1e-15 of roundoff
        # in delta would otherwise smear into a 3e-8 imaginary part.
        return Quaternion(s0, 0.0)
    return Quaternion(s0, math.sqrt(radicand))


def case3(t: GroupElement) -> DiagonalizationResult:
    """Diagonalize T with b != conj(c) != 0 and delta < 0."""
    m = t.m
    a, b, c, dq = m._p[0:4], m._p[4:8], m._p[8:12], m._p[12:16]
    bc = _sub(b, _conj(c))
    gap, dlt = _derived(t)[:2]  # gap is _norm_sq(bc)

    a0, d0 = a[0], dq[0]
    split = math.sqrt(-dlt)
    sphere = _unit_point(0.5 * (a0 + d0 + split))
    sphere_p = _unit_point(0.5 * (a0 + d0 - split))

    # p = 2 s0 conj(c) - b conj(d) - conj(c) d; the products do not depend
    # on s0.
    cc = _conj(c)
    e, f = _qmul(b, _conj(dq)), _qmul(cc, dq)

    def momentum(s0: float) -> tuple:
        return _sub(_sub(_scaled(cc, 2.0 * s0), e), f)

    p, pp = momentum(sphere.w), momentum(sphere_p.w)
    nbc = math.sqrt(gap)
    claim = max(abs(_norm(p) - nbc), abs(_norm(pp) - nbc))

    if a0 > d0:
        first, second = (sphere, p), (sphere_p, pp)
    else:
        first, second = (sphere_p, pp), (sphere, p)

    c_inv = _inverse(c)

    def row_seed(pair):
        sigma, pv = pair
        u = _scaled(_qmul(bc, _conj(pv)), -1.0 / (nbc * nbc))
        x = solve_similarity(sigma, _tuple_new(Quaternion, u))
        ratio = _qmul(_add(_qmul(bc, _inverse(pv)), a), c_inv)
        return x, ratio

    x1_unit, ratio1 = row_seed(first)
    n1 = _norm_sq(ratio1)
    margin1 = 1.0 - n1
    if margin1 <= CLAIM_MARGIN:
        raise ClaimViolationError(
            f"Claim A failed: |ratio|^2 = {n1:.17g} not below 1")
    x1 = _scaled(x1_unit, 1.0 / math.sqrt(margin1))
    x2 = _neg(_qmul(x1, ratio1))

    x3_unit, ratio2 = row_seed(second)
    n2 = _norm_sq(ratio2)
    margin2 = n2 - 1.0
    if margin2 <= CLAIM_MARGIN:
        raise ClaimViolationError(
            f"Claim B failed: |ratio|^2 = {n2:.17g} not above 1")
    x3 = _scaled(x3_unit, 1.0 / math.sqrt(margin2))
    x4 = _neg(_qmul(x3, ratio2))

    claim = max(claim,
                _norm(_sub(_qmul(ratio1, _conj(ratio2)), (1.0, 0.0, 0.0, 0.0))))
    claim = max(claim,
                abs(_norm(x1) - _norm(x4)),
                _norm(_sub(_qmul(x1, _conj(x3)), _qmul(x2, _conj(x4)))),
                _norm(_sub(_qmul(_conj(x1), x2), _qmul(_conj(x3), x4))))
    if claim > CLAIM_TOL:
        raise ClaimViolationError(f"claim residual {claim:.3e} exceeds {CLAIM_TOL}")

    x = x1 + x2 + x3 + x4
    xmat = _from_parts(x)
    residual = membership_residual(xmat)
    if residual > CLAIM_TOL:
        raise ClaimViolationError(
            f"conjugator membership residual {residual:.3e}")
    d = Mat2H.diag(first[0], second[0])
    return DiagonalizationResult(GroupElement(xmat, residual), d,
                                 _conjugation_residual(x, m, d),
                                 residual,
                                 DiagonalizationCase.CASE3, claim)
