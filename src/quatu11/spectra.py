"""Right, S-, and left spectra of 2x2 quaternionic matrices.

Right eigenvalues come in similarity classes, each a 2-sphere determined by
a real part and a modulus; for group elements at most two such spheres
occur and they follow from the trace and delta alone.  The S-spectrum
coincides with the right spectrum, so `right_spectrum` serves for both.
Left eigenvalues are not similarity invariant and are computed entrywise
from the quadratic q^2 + B q + C == 0 with B = b^-1 (a - d), C = -b^-1 c,
solved in closed form through one real resolvent cubic (L. Huang, W. So,
"Quadratic formulas for quaternions", Appl. Math. Lett. 15, 2002), whose
largest real root is itself taken in closed form, without numpy.  The
left-spectrum kernel runs on the matrix's 16 float components and builds a
Quaternion only for what it returns; each sum keeps the operation order of
the Quaternion formulas, and tests/test_spectra.py pins its output bit for
bit to those formulas written with Quaternion operations.
"""

from __future__ import annotations

import math

from ._thresholds import (COLLAPSE_TOL, DOUBLE_ROOT_TOL, ORACLE_MERGE_TOL,
                          POINT_MERGE_TOL, QUADRATIC_RESIDUAL_TOL,
                          REAL_COEFF_TOL, SPECTRUM_TOL, SPHERE_DISC_FLOOR)
from .errors import NoRootFoundError, NotApplicableError
from .group import GroupElement, _unit_vectors
from .mat2h import Mat2H, _require_finite_norm
from .moebius import (DiagonalizationCase, MoebiusClass, _derived,
                      _entry_eps, stratum)
from .quaternion import (Quaternion, Record, _conj, _inverse, _qmul,
                         _tuple_new)

__all__ = [
    "SpectralSphere",
    "RightSpectrum",
    "SphereFamily",
    "LeftSpectrumDescription",
    "right_spectrum",
    "right_spectrum_casewise",
    "verify_s_point",
    "right_spectrum_oracle",
    "left_eigenvalues",
    "SPECTRUM_TOL",
]


def _unit_imaginaries(rng, count: int) -> list[Quaternion]:
    return [Quaternion(0.0, *u) for u in _unit_vectors(rng, count, 3)]


class SpectralSphere(Record):
    """Similarity class {q : Re q == re, |q| == modulus}."""

    __slots__ = ("re", "modulus")

    def __init__(self, re: float, modulus: float):
        _set_re(self, re)
        _set_modulus(self, modulus)

    def _imag_radius(self) -> float:
        return math.sqrt(max(self.modulus ** 2 - self.re ** 2, 0.0))

    def representative(self) -> Quaternion:
        return Quaternion(self.re, self._imag_radius(), 0.0, 0.0)

    def sample(self, count: int, seed=0) -> list[Quaternion]:
        import numpy as np
        rng = np.random.default_rng(seed)
        imag = self._imag_radius()
        return [Quaternion(self.re, 0, 0, 0) + u * imag
                for u in _unit_imaginaries(rng, count)]

    def to_json(self) -> dict:
        return {"re": self.re, "modulus": self.modulus}


class RightSpectrum(Record):
    __slots__ = ("spheres",)

    def __init__(self, spheres: tuple[SpectralSphere, ...]):
        _set_spheres(self, spheres)

    @classmethod
    def from_pairs(cls, pairs, collapse_tol: float = COLLAPSE_TOL) -> "RightSpectrum":
        """Pairs in descending order, each merged into the run before it while
        both parts lie within collapse_tol of the run's sum / count."""
        spheres, n = [], 0
        for re, mod in sorted(pairs, reverse=True):
            if n and abs(re - re_sum / n) <= collapse_tol \
                    and abs(mod - mod_sum / n) <= collapse_tol:
                re_sum, mod_sum, n = re_sum + re, mod_sum + mod, n + 1
                continue
            if n:
                spheres.append(SpectralSphere(re_sum / n, mod_sum / n))
            re_sum, mod_sum, n = re, mod, 1
        if n:
            spheres.append(SpectralSphere(re_sum / n, mod_sum / n))
        return cls(tuple(spheres))

    def max_deviation(self, other: "RightSpectrum") -> float:
        """Symmetric Hausdorff-style distance on (re, modulus) data."""
        def one_sided(src, dst):
            worst = 0.0
            for s in src:
                best = min(max(abs(s.re - t.re), abs(s.modulus - t.modulus))
                           for t in dst)
                worst = max(worst, best)
            return worst

        if not self.spheres or not other.spheres:
            return math.inf
        return max(one_sided(self.spheres, other.spheres),
                   one_sided(other.spheres, self.spheres))

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.spheres]


_set_re, _set_modulus = SpectralSphere._slot_setters()
(_set_spheres,) = RightSpectrum._slot_setters()


def _sphere_pairs(A: float, dlt: float, unit: bool = False) -> list:
    """(re, modulus) of the right eigenvalues for A = a0 + d0 and delta.
    K = T + T^-1 - A I has K^2 = -delta I and commutes with T, so each one
    solves lambda^2 - y lambda + 1 == 0, with y a root of
    y^2 - 2 A y + A^2 + delta.  Each quadratic gives its larger-modulus
    lambda and the inverse; |y| <= 2, or unit (|lambda| == 1 decided),
    gives the sphere (y / 2, 1.0).  delta > 0 never reads unit."""
    if dlt > 0.0:
        import cmath  # only a compound loxodromic y is complex
        y = complex(A, math.sqrt(dlt))
        root = cmath.sqrt(y * y - 4.0)
        lam = 0.5 * max(y + root, y - root, key=abs)
        return [(lam.real, abs(lam)), ((1.0 / lam).real, 1.0 / abs(lam))]
    root = math.sqrt(-dlt)
    pairs = []
    for y in (A + root, A - root) if root else (A,):
        if unit or abs(y) <= 2.0:
            pairs.append((0.5 * y, 1.0))
        else:
            lam = 0.5 * (y + math.copysign(math.sqrt(y * y - 4.0), y))
            pairs += [(lam, abs(lam)), (1.0 / lam, abs(1.0 / lam))]
    return pairs


def right_spectrum(t: GroupElement) -> RightSpectrum:
    """Spectral spheres by the K-form, on the values T's class decides:
    delta = 0 where K = 0 or on CompoundParabolic; |lambda| = 1 but on
    SimpleLoxodromic (CompoundLoxodromic has delta > 0, so a complex y)."""
    cls = stratum(t)[1]
    dlt = _derived(t)[1] if cls in (MoebiusClass.COMPOUND_ELLIPTIC,
                                    MoebiusClass.COMPOUND_LOXODROMIC) else 0.0
    unit = cls is not MoebiusClass.SIMPLE_LOXODROMIC
    return RightSpectrum.from_pairs(
        _sphere_pairs(t.m._p[0] + t.m._p[12], dlt, unit))


def right_spectrum_casewise(t: GroupElement) -> RightSpectrum:
    """Spectral spheres from the case-by-case description.

    An independent route kept deliberately close to the entry data: the
    off-diagonal cases work through d0, the generic case through the K-form
    on the real part of conj(c)^-1 b conj(d) + d rather than a0 + d0.
    """
    case, cls = stratum(t)
    p = t.m._p
    d0 = p[12]
    if case is DiagonalizationCase.CASE1:
        return RightSpectrum.from_pairs([(p[0], 1.0), (d0, 1.0)])
    if case is DiagonalizationCase.CASE2:
        if cls is MoebiusClass.SIMPLE_PARABOLIC:
            return RightSpectrum.from_pairs([(d0, abs(d0))])
        if cls is MoebiusClass.SIMPLE_LOXODROMIC:
            root = math.sqrt(d0 * d0 - 1.0)
            return RightSpectrum.from_pairs(
                [(d0 + root, abs(d0 + root)), (d0 - root, abs(d0 - root))])
        return RightSpectrum.from_pairs([(d0, 1.0)])
    # Re(conj(c)^-1 b conj(d) + d)
    lead = _qmul(_inverse(_conj(p[8:12])), p[4:8])
    trace_half = _qmul(lead, _conj(p[12:16]))[0] + d0
    dlt = 0.0 if cls is MoebiusClass.COMPOUND_PARABOLIC else _derived(t)[1]
    return RightSpectrum.from_pairs(_sphere_pairs(trace_half, dlt, True))


def verify_s_point(m: Mat2H, s: Quaternion) -> bool:
    """Whether s solves the S-spectrum equation: T^2 - 2 Re(s) T + |s|^2 I
    is singular at SPECTRUM_TOL."""
    probe = (m @ m) - (2.0 * s.w) * m + s.norm_sq() * Mat2H.identity()
    return probe.is_singular(SPECTRUM_TOL)


def right_spectrum_oracle(m: Mat2H) -> RightSpectrum:
    """Sphere data read off the eigenvalues of the complex adjoint chi(M).

    The four chi eigenvalues project onto (re, modulus) pairs in duplicate;
    clustering the projections recovers the spectral spheres without any
    of the closed-form machinery above.
    """
    import numpy as np
    _require_finite_norm(m._p, "the oracle")

    def not_converged(err, flag):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # LAPACK's eigvals gufunc under np.linalg.eigvals' error state; the
    # wrapper's other checks hold for any chi, a finite 4x4 complex128.
    with np.errstate(call=not_converged, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        eigenvalues = np.linalg._umath_linalg.eigvals(m.chi(),
                                                      signature="D->D")
    try:
        projections = sorted([(e.real, abs(e)) for e in eigenvalues.tolist()])
    except OverflowError:  # |e| past the largest float: refused below
        projections = [(math.inf, math.inf)]
    pairs, n = [], 0
    for re, mod in projections:
        if n and abs(re - re_sum / n) <= ORACLE_MERGE_TOL * (1.0 + abs(re)) \
                and abs(mod - mod_sum / n) <= ORACLE_MERGE_TOL * (1.0 + mod):
            re_sum, mod_sum, n = re_sum + re, mod_sum + mod, n + 1
            continue
        if n:
            pairs.append((re_sum / n, mod_sum / n))
        re_sum, mod_sum, n = re, mod, 1
    pairs.append((re_sum / n, mod_sum / n))
    if not all([math.isfinite(re) and math.isfinite(mod) for re, mod in pairs]):
        # an eigenvalue, or a cluster's running sum, past the largest float
        raise NotApplicableError(
            "the oracle needs a finite matrix norm, got inf")
    return RightSpectrum.from_pairs(pairs)


# -- left spectrum ---------------------------------------------------------


class SphereFamily(Record):
    """Left-eigenvalue family {alpha + beta * q : q unit imaginary}.

    The image is a round 2-sphere; beta fixes its radius and orientation,
    and need not point in an imaginary direction itself.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Quaternion, beta: Quaternion):
        _set_alpha(self, alpha)
        _set_beta(self, beta)

    @property
    def center_re(self) -> float:
        return self.alpha.w

    @property
    def offset(self) -> Quaternion:
        return self.alpha.imag()

    @property
    def radius(self) -> float:
        return self.beta.norm()

    @property
    def axis(self) -> Quaternion:
        return self.beta.normalized()

    def sample(self, count: int, seed=0) -> list[Quaternion]:
        import numpy as np
        rng = np.random.default_rng(seed)
        return [self.alpha + self.beta * u
                for u in _unit_imaginaries(rng, count)]

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.as_list(),
            "beta": self.beta.as_list(),
            "center_re": self.center_re,
            "offset": self.offset.as_list(),
            "axis": self.axis.as_list(),
            "radius": self.radius,
        }


class LeftSpectrumDescription(Record):
    __slots__ = ("points", "families")

    def __init__(self, points: tuple[Quaternion, ...],
                 families: tuple[SphereFamily, ...]):
        _set_points(self, points)
        _set_families(self, families)

    def to_json(self) -> dict:
        return {"points": [p.as_list() for p in self.points],
                "families": [f.to_json() for f in self.families]}


_set_alpha, _set_beta = SphereFamily._slot_setters()
_set_points, _set_families = LeftSpectrumDescription._slot_setters()


def _newton_step(beta: float, gap: float, dd: float, z: float) -> float:
    """z after one Newton step on z^3 + 2 beta z^2 + gap z - dd, kept only
    if the step makes the residual smaller."""
    f = ((z + 2.0 * beta) * z + gap) * z - dd
    df = (3.0 * z + 4.0 * beta) * z + gap
    if df == 0.0:
        return z
    step = z - f / df
    return step if abs(((step + 2.0 * beta) * step + gap) * step - dd) < abs(f) \
        else z


def _largest_resolvent_root(beta: float, gap: float, dd: float) -> float:
    """Largest real root of the Huang-So resolvent
    f(z) = z^3 + 2 beta z^2 + gap z - dd, with dd >= 0.

    f(0) = -dd <= 0, so the root is at least 0.  The resolvent has
    gap = beta^2 - 4E <= 0 wherever beta < 0, so by Descartes' rule of
    signs no other root is positive, and a complex pair has a negative
    real part.  The shift z = y - 2 beta / 3 leaves y^3 + p y + q == 0,
    whose real roots have closed trigonometric or hyperbolic forms.  Near a
    double root those forms are only sqrt(eps)-accurate, so with three real
    roots they supply only the root r of largest modulus.  After one Newton
    step on f, the other two roots solve the deflated quadratic
    z^2 + q1 z + q0 with q0 = dd / r and q1 = (q0 - gap) / r, which matches
    f's two lowest coefficients exactly, so its roots are as accurate as
    f(r) is small (W. Kahan, "To solve a real cubic equation", 1986).
    """
    shift = 2.0 * beta / 3.0
    p = gap - 3.0 * shift * shift
    q = shift * (2.0 * shift * shift - gap) - dd
    if p < 0.0:
        s = math.sqrt(-p / 3.0)
        h = -q / (2.0 * s * s * s)
        if h > 1.0:
            # One real root, not below 0 since f(0) = -dd <= 0.
            y = 2.0 * s * math.cosh(math.acosh(h) / 3.0)
        else:
            # Three real roots.  h < -1 would leave one real root, below
            # zero for this resolvent, which f(0) <= 0 rules out, so it is
            # roundoff on a double root.
            phi = math.acos(max(h, -1.0)) / 3.0
            top = 2.0 * s * math.cos(phi) - shift
            bottom = 2.0 * s * math.cos(phi + 2.0 * math.pi / 3.0) - shift
            r = _newton_step(beta, gap, dd,
                             top if top + bottom >= 0.0 else bottom)
            q0 = dd / r
            q1 = (q0 - gap) / r
            disc = q1 * q1 - 4.0 * q0
            if disc < 0.0:
                return r
            # The quadratic formula without cancellation between -q1 and
            # the square root; t == 0 only at the double root 0.
            t = -0.5 * (q1 + math.copysign(math.sqrt(disc), q1))
            return max(r, t, q0 / t if t != 0.0 else 0.0)
    elif p == 0.0:
        y = -math.copysign(abs(q) ** (1.0 / 3.0), q)
    else:
        # f increases everywhere: one real root.
        s = math.sqrt(p / 3.0)
        y = -2.0 * s * math.sinh(math.asinh(q / (2.0 * s * s * s)) / 3.0)
    return _newton_step(beta, gap, dd, y - shift)


def _quad_residual(q: tuple, B: tuple, C: tuple) -> float:
    """|q^2 + B q + C| for quaternions given as (w, x, y, z) tuples, summed
    in the order Quaternion.__mul__, __add__ and norm sum."""
    qw, qx, qy, qz = q
    bw, bx, by, bz = B
    w = ((qw * qw - qx * qx - qy * qy - qz * qz)
         + (bw * qw - bx * qx - by * qy - bz * qz)) + C[0]
    x = ((qw * qx + qx * qw + qy * qz - qz * qy)
         + (bw * qx + bx * qw + by * qz - bz * qy)) + C[1]
    y = ((qw * qy - qx * qz + qy * qw + qz * qx)
         + (bw * qy - bx * qz + by * qw + bz * qx)) + C[2]
    z = ((qw * qz + qx * qy - qy * qx + qz * qw)
         + (bw * qz + bx * qy - by * qx + bz * qw)) + C[3]
    return math.sqrt(w * w + x * x + y * y + z * z)


def _quadratic_roots(B: tuple, C: tuple) -> list[tuple]:
    """Roots of q^2 + B q + C == 0 for B, C not both real (Huang and So),
    each quaternion a (w, x, y, z) tuple.

    The shift q = y - Re(B)/2 leaves y^2 + b y + c == 0 with b = Im B.  Every
    root also solves y^2 - T y + N == 0 with T = 2 Re y and N = |y|^2, so
    (b + T) y == N - c, and (T, N) follows from the real resolvent cubic
    z^3 + 2 beta z^2 + (beta^2 - 4E) z - D^2 == 0 in z = T^2, where
    beta = |b|^2 + 2 Re c, E = |c|^2 and D = 2 <b, Im c>.
    """
    Bw, bx, by, bz = B
    Cw, Cx, Cy, Cz = C
    h = 0.5 * Bw
    # c = C - B0^2 / 4 - b B0 / 2; b has real part 0.0.
    cw = Cw - 0.25 * Bw * Bw
    cx, cy, cz = Cx - bx * h, Cy - by * h, Cz - bz * h
    nb2 = bx * bx + by * by + bz * bz
    beta = nb2 + 2.0 * cw
    # 2 <b, c>; b's zero real part adds nothing.
    D = 2.0 * (bx * cx + by * cy + bz * cz)
    # beta^2 - 4E with the Re(c)^2 terms cancelled by hand: the direct
    # difference loses every digit when B and C are nearly real.
    gap = nb2 * nb2 + 4.0 * cw * nb2 - 4.0 * (cx * cx + cy * cy + cz * cz)
    # z and N are of the size of |b|^2 + 2|c|, gap of its square.
    norm_c = math.sqrt(cw * cw + cx * cx + cy * cy + cz * cz)
    size = nb2 + 2.0 * norm_c
    if D == 0.0:
        z = 2.0 * norm_c - beta
    else:
        # The largest real root, its only positive one, has z + beta > 0.
        z = _largest_resolvent_root(beta, gap, D * D)
    if z > DOUBLE_ROOT_TOL * size:
        pairs = [(t, 0.5 * (z + beta + D / t))
                 for t in (math.sqrt(z), -math.sqrt(z))]
    elif not nb2 > 0.0:
        # T == 0 and b == 0, so b + T has no inverse, but y^2 == -c: take
        # y = +-sqrt(-c) with |Im y| = sqrt((|c| + c0) / 2) and
        # Re y = |Im c| / (2 |Im y|), Im y along -Im c.  z == 2 (|c| - c0)
        # is this small only for c0 ~ |c| > 0, so no difference cancels.
        norm_im = math.sqrt(cx * cx + cy * cy + cz * cz)
        s = math.sqrt(0.5 * (norm_c + cw))
        if not (norm_im > 0.0 and s > 0.0):
            return []
        r = norm_im / (2.0 * s)
        k = s / norm_im
        yx, yy, yz = -cx * k, -cy * k, -cz * k
        return [(r - h, yx, yy, yz), (-r - h, -yx, -yy, -yz)]
    else:
        # T == 0.  At a double root z and gap are zero up to roundoff, and
        # their square roots would split it into two points ~1e-8 apart.
        root = math.sqrt(gap) if gap > DOUBLE_ROOT_TOL * size * size else 0.0
        pairs = [(0.0, 0.5 * (beta + root)), (0.0, 0.5 * (beta - root))]
    roots = []
    for t, n in pairs:
        # y = (b + T)^-1 (N - c).  The Quaternion route pads the real T and
        # N with zero parts: b + T turns a -0.0 part of b into +0.0, and
        # N - c negates c's imaginary parts as 0.0 - x, +0.0 at x == 0.
        pw, px, py, pz = t, bx + 0.0, by + 0.0, bz + 0.0
        n2 = pw * pw + px * px + py * py + pz * pz
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        iw, ix, iy, iz = pw / n2, -px / n2, -py / n2, -pz / n2
        ew, ex, ey, ez = n - cw, 0.0 - cx, 0.0 - cy, 0.0 - cz
        roots.append((iw * ew - ix * ex - iy * ey - iz * ez - h,
                      iw * ex + ix * ew + iy * ez - iz * ey,
                      iw * ey - ix * ez + iy * ew + iz * ex,
                      iw * ez + ix * ey - iy * ex + iz * ew))
    return roots


def left_eigenvalues(m: Mat2H) -> LeftSpectrumDescription:
    """All left eigenvalues of M, as isolated points and/or a sphere family.

    With b != 0, lambda = a + b q for the roots q of q^2 + B q + C == 0.
    Real B and C give two real roots or a sphere family; otherwise the
    Huang-So formulas give at most two candidates.  Every emitted point
    satisfies the quadratic residual bound, which already makes M - lambda I
    singular: (1, q) is its null vector up to |b| times that residual.  When
    no candidate survives the filter the computation is reported as failed
    rather than silently empty; a matrix whose Frobenius norm is not finite
    raises NotApplicableError.

    Plain float arithmetic on the 16 components.  Every sum is formed in
    the order the Quaternion operations of these formulas form it, and the
    zero parts that can flip the sign of a zero are kept, so the output has
    the bits of that route while Quaternions are built only for the emitted
    points and a sphere family.
    """
    p = m._p
    (aw, ax, ay, az, bw, bx, by, bz,
     cw, cx, cy, cz, dw, dx, dy, dz) = p
    eps = _entry_eps(p)
    if not math.isfinite(eps):  # inf or NaN as the norm is
        raise NotApplicableError(
            f"left eigenvalues need a finite matrix norm, got {eps}")
    nb = bw * bw + bx * bx + by * by + bz * bz
    ew, ex, ey, ez = aw - dw, ax - dx, ay - dy, az - dz
    if math.sqrt(nb) <= eps:
        points = [_tuple_new(Quaternion, p[0:4])]
        if math.sqrt(ew * ew + ex * ex + ey * ey + ez * ez) > eps:
            points.append(_tuple_new(Quaternion, p[12:16]))
        points.sort()
        return LeftSpectrumDescription(tuple(points), ())

    # B = b^-1 (a - d) and C = -(b^-1 c); nb > eps^2 > 0 here.
    iw, ix, iy, iz = bw / nb, -bx / nb, -by / nb, -bz / nb
    B = (iw * ew - ix * ex - iy * ey - iz * ez,
         iw * ex + ix * ew + iy * ez - iz * ey,
         iw * ey - ix * ez + iy * ew + iz * ex,
         iw * ez + ix * ey - iy * ex + iz * ew)
    C = (-(iw * cw - ix * cx - iy * cy - iz * cz),
         -(iw * cx + ix * cw + iy * cz - iz * cy),
         -(iw * cy - ix * cz + iy * cw + iz * cx),
         -(iw * cz + ix * cy - iy * cx + iz * cw))
    B0, C0 = B[0], C[0]
    if (math.sqrt(B[1] * B[1] + B[2] * B[2] + B[3] * B[3]) <= REAL_COEFF_TOL
            and math.sqrt(C[1] * C[1] + C[2] * C[2] + C[3] * C[3])
            <= REAL_COEFF_TOL):
        # Real coefficients: either two real roots or a whole sphere.
        disc = B0 * B0 - 4.0 * C0
        if disc < SPHERE_DISC_FLOOR:
            radius = math.sqrt(C0 - 0.25 * B0 * B0)
            family = SphereFamily(m.a - m.b * (0.5 * B0), m.b * radius)
            return LeftSpectrumDescription((), (family,))
        terms = B0 * B0 + 4.0 * abs(C0)
        root = math.sqrt(disc) if disc > DOUBLE_ROOT_TOL * terms else 0.0
        candidates = [(0.5 * (-B0 + root), 0.0, 0.0, 0.0),
                      (0.5 * (-B0 - root), 0.0, 0.0, 0.0)]
    else:
        candidates = _quadratic_roots(B, C)

    seen: list[Quaternion] = []
    for q in candidates:
        if not _quad_residual(q, B, C) <= QUADRATIC_RESIDUAL_TOL:
            continue
        qw, qx, qy, qz = q
        # lambda = a + b q
        lw = aw + (bw * qw - bx * qx - by * qy - bz * qz)
        lx = ax + (bw * qx + bx * qw + by * qz - bz * qy)
        ly = ay + (bw * qy - bx * qz + by * qw + bz * qx)
        lz = az + (bw * qz + bx * qy - by * qx + bz * qw)
        if any(math.sqrt((lw - kw) * (lw - kw) + (lx - kx) * (lx - kx)
                         + (ly - ky) * (ly - ky) + (lz - kz) * (lz - kz))
               <= POINT_MERGE_TOL for kw, kx, ky, kz in seen):
            continue
        seen.append(_tuple_new(Quaternion, (lw, lx, ly, lz)))
    if not seen:
        raise NoRootFoundError("no left eigenvalue survived the residual filter")
    seen.sort()
    return LeftSpectrumDescription(tuple(seen), ())
