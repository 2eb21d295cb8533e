"""Cases 2 and 3 of `diagonalize_elliptic` on the float parts of the entries.

Every sum is formed in the order the Quaternion and Mat2H operations of the
construction form it, zero parts included where they can set the sign of a
zero, so the result has the bits of that route (the Quaternion-form bodies
live on as the bit reference in tests/test_diagonalize.py).  Quaternions
are built only for X and D and for the arguments of
`quaternion.solve_similarity`, which runs in its Quaternion form.
`diagonalize_elliptic` imports this module on its first Case-2 or Case-3
element.
"""

from __future__ import annotations

import math

from .diagonalize import CLAIM_TOL, DiagonalizationResult, _unit_point
from .errors import ClaimViolationError
from .group import GroupElement, membership_residual, validate
from .mat2h import Mat2H, _from_quaternions
from .moebius import DiagonalizationCase, delta
from .quaternion import Quaternion, _new, solve_similarity

# -- arithmetic on (w, x, y, z) part tuples ---------------------------------
# Each sums as the Quaternion or Mat2H operation it stands for.


def _parts(q: Quaternion) -> tuple:
    return q.w, q.x, q.y, q.z


def _conj(p: tuple) -> tuple:
    return p[0], -p[1], -p[2], -p[3]


def _neg(p: tuple) -> tuple:
    return -p[0], -p[1], -p[2], -p[3]


def _add(p: tuple, q: tuple) -> tuple:
    return p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3]


def _sub(p: tuple, q: tuple) -> tuple:
    return p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3]


def _scaled(p: tuple, s: float) -> tuple:
    """p * s for a real s."""
    return p[0] * s, p[1] * s, p[2] * s, p[3] * s


def _norm_sq(p: tuple) -> float:
    w, x, y, z = p
    return w * w + x * x + y * y + z * z


def _norm(p: tuple) -> float:
    return math.sqrt(_norm_sq(p))


def _inverse(p: tuple) -> tuple:
    n2 = _norm_sq(p)
    if n2 == 0.0:
        raise ZeroDivisionError("zero quaternion has no inverse")
    return p[0] / n2, -p[1] / n2, -p[2] / n2, -p[3] / n2


def _qmul(p: tuple, q: tuple) -> tuple:
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


def _matmul(m: tuple, n: tuple) -> tuple:
    """Mat2H.__matmul__ on matrices given as 16-tuples, the parts of a, b,
    c and d; each entry p r + q s is summed as quaternion._mul_add."""
    (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3) = m
    (e0, e1, e2, e3, f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3) = n
    return (
        # a e + b g
        (a0 * e0 - a1 * e1 - a2 * e2 - a3 * e3)
        + (b0 * g0 - b1 * g1 - b2 * g2 - b3 * g3),
        (a0 * e1 + a1 * e0 + a2 * e3 - a3 * e2)
        + (b0 * g1 + b1 * g0 + b2 * g3 - b3 * g2),
        (a0 * e2 - a1 * e3 + a2 * e0 + a3 * e1)
        + (b0 * g2 - b1 * g3 + b2 * g0 + b3 * g1),
        (a0 * e3 + a1 * e2 - a2 * e1 + a3 * e0)
        + (b0 * g3 + b1 * g2 - b2 * g1 + b3 * g0),
        # a f + b h
        (a0 * f0 - a1 * f1 - a2 * f2 - a3 * f3)
        + (b0 * h0 - b1 * h1 - b2 * h2 - b3 * h3),
        (a0 * f1 + a1 * f0 + a2 * f3 - a3 * f2)
        + (b0 * h1 + b1 * h0 + b2 * h3 - b3 * h2),
        (a0 * f2 - a1 * f3 + a2 * f0 + a3 * f1)
        + (b0 * h2 - b1 * h3 + b2 * h0 + b3 * h1),
        (a0 * f3 + a1 * f2 - a2 * f1 + a3 * f0)
        + (b0 * h3 + b1 * h2 - b2 * h1 + b3 * h0),
        # c e + d g
        (c0 * e0 - c1 * e1 - c2 * e2 - c3 * e3)
        + (d0 * g0 - d1 * g1 - d2 * g2 - d3 * g3),
        (c0 * e1 + c1 * e0 + c2 * e3 - c3 * e2)
        + (d0 * g1 + d1 * g0 + d2 * g3 - d3 * g2),
        (c0 * e2 - c1 * e3 + c2 * e0 + c3 * e1)
        + (d0 * g2 - d1 * g3 + d2 * g0 + d3 * g1),
        (c0 * e3 + c1 * e2 - c2 * e1 + c3 * e0)
        + (d0 * g3 + d1 * g2 - d2 * g1 + d3 * g0),
        # c f + d h
        (c0 * f0 - c1 * f1 - c2 * f2 - c3 * f3)
        + (d0 * h0 - d1 * h1 - d2 * h2 - d3 * h3),
        (c0 * f1 + c1 * f0 + c2 * f3 - c3 * f2)
        + (d0 * h1 + d1 * h0 + d2 * h3 - d3 * h2),
        (c0 * f2 - c1 * f3 + c2 * f0 + c3 * f1)
        + (d0 * h2 - d1 * h3 + d2 * h0 + d3 * h1),
        (c0 * f3 + c1 * f2 - c2 * f1 + c3 * f0)
        + (d0 * h3 + d1 * h2 - d2 * h1 + d3 * h0),
    )


def _matrix(m: Mat2H) -> tuple:
    a, b, c, d = m.a, m.b, m.c, m.d
    return (a.w, a.x, a.y, a.z, b.w, b.x, b.y, b.z,
            c.w, c.x, c.y, c.z, d.w, d.x, d.y, d.z)


def _conjugation_residual(x: tuple, m: Mat2H, d: Mat2H) -> float:
    """||X M J X* J - D||_F for X given as a 16-tuple and diagonal D, with the
    bits of the Mat2H route: J X* J with the negated conjugates written out
    (-conj(q) is (-w, x, y, z)), the Frobenius sum over a, b, c, d, and the
    off-diagonal zeros of D dropped, since q - 0.0 == q for every float q."""
    (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3) = x
    inverse = (a0, -a1, -a2, -a3, -c0, c1, c2, c3,
               -b0, b1, b2, b3, d0, -d1, -d2, -d3)
    (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3) = \
        _matmul(_matmul(x, _matrix(m)), inverse)
    p, q = d.a, d.d
    a0, a1, a2, a3 = a0 - p.w, a1 - p.x, a2 - p.y, a3 - p.z
    d0, d1, d2, d3 = d0 - q.w, d1 - q.x, d2 - q.y, d3 - q.z
    return math.sqrt((a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3)
                     + (b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3)
                     + (c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3)
                     + (d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3))


def case2(t: GroupElement) -> DiagonalizationResult:
    """Diagonalize T with b == conj(c) != 0 and d0^2 < 1."""
    m = t.m
    dq = m.d
    d0 = dq.w

    c = _parts(m.c)
    c_mod = _norm(c)
    phase = _scaled(c, 1.0 / c_mod)
    # x1 = diag(phase, 1) and x1 T x1^-1 == [[conj(d), |c|], [|c|, d]];
    # only d survives below.

    lam1 = math.sqrt(1.0 - d0 * d0)
    lam2 = math.sqrt(1.0 - d0 * d0 + c_mod * c_mod)
    # y = conj(solve_similarity(conj(d), d0 + lam2 i))
    y0, y1, y2, y3 = _conj(_parts(solve_similarity(
        _new(d0, -dq.x, -dq.y, -dq.z), Quaternion(d0, lam2))))

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
    xe = validate(_from_quaternions(_new(*x[:4]), _new(*x[4:8]),
                                    _new(*x[8:12]), _new(*x[12:])),
                  CLAIM_TOL)
    d = Mat2H.diag(Quaternion(d0, lam1), Quaternion(d0, -lam1))
    return DiagonalizationResult(xe, d, _conjugation_residual(x, m, d),
                                 xe.membership_residual,
                                 DiagonalizationCase.CASE2)


def case3(t: GroupElement) -> DiagonalizationResult:
    """Diagonalize T with b != conj(c) != 0 and delta < 0."""
    m = t.m
    a, b, c, dq = _parts(m.a), _parts(m.b), _parts(m.c), _parts(m.d)
    # b - conj(c); x - (-y) is x + y
    bc = _add(b, (-c[0], c[1], c[2], c[3]))
    dlt = delta(m)

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
    nbc = _norm(bc)
    claim = max(abs(_norm(p) - nbc), abs(_norm(pp) - nbc))

    if a0 > d0:
        first, second = (sphere, p), (sphere_p, pp)
    else:
        first, second = (sphere_p, pp), (sphere, p)

    c_inv = _inverse(c)

    def row_seed(pair):
        sigma, pv = pair
        u = _scaled(_qmul(bc, _conj(pv)), -1.0 / (nbc * nbc))
        x = _parts(solve_similarity(sigma, _new(*u)))
        ratio = _qmul(_add(_qmul(bc, _inverse(pv)), a), c_inv)
        return x, ratio

    x1_unit, ratio1 = row_seed(first)
    n1 = _norm_sq(ratio1)
    margin1 = 1.0 - n1
    if margin1 <= 1e-12:
        raise ClaimViolationError(
            f"Claim A failed: |ratio|^2 = {n1:.17g} not below 1")
    x1 = _scaled(x1_unit, 1.0 / math.sqrt(margin1))
    x2 = _neg(_qmul(x1, ratio1))

    x3_unit, ratio2 = row_seed(second)
    n2 = _norm_sq(ratio2)
    margin2 = n2 - 1.0
    if margin2 <= 1e-12:
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

    xmat = _from_quaternions(_new(*x1), _new(*x2), _new(*x3), _new(*x4))
    residual = membership_residual(xmat)
    if residual > CLAIM_TOL:
        raise ClaimViolationError(
            f"conjugator membership residual {residual:.3e}")
    d = Mat2H.diag(first[0], second[0])
    return DiagonalizationResult(GroupElement(xmat, residual), d,
                                 _conjugation_residual(x1 + x2 + x3 + x4, m, d),
                                 residual,
                                 DiagonalizationCase.CASE3, claim)
