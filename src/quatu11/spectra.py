"""Right, S-, and left spectra of 2x2 quaternionic matrices.

Right eigenvalues come in similarity classes, each a 2-sphere determined by
a real part and a modulus; for group elements at most two such spheres
occur and they follow from the trace and delta alone.  The S-spectrum
coincides with the right spectrum, so `right_spectrum` serves for both.
Left eigenvalues are not similarity invariant and are computed entrywise
from the quadratic q^2 + B q + C == 0 with B = b^-1 (a - d), C = -b^-1 c,
solved in closed form through one real resolvent cubic (L. Huang, W. So,
"Quadratic formulas for quaternions", Appl. Math. Lett. 15, 2002).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeRadicandError, NoRootFoundError
from .group import GroupElement, _unit_vector
from .mat2h import Mat2H
from .moebius import (EPS_CLASS, DiagonalizationCase, MoebiusClass, delta,
                      stratum)
from .quaternion import Quaternion

SPECTRUM_TOL = 1e-7
COLLAPSE_TOL = 1e-10
# A root discriminant at most this fraction of the size of its terms is
# roundoff on an exact double root, and is taken as zero.
DOUBLE_ROOT_TOL = 1e-13
# A left-eigenvalue candidate must solve its quadratic to this residual.
QUADRATIC_RESIDUAL_TOL = 1e-9

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


def _unit_imaginary(rng) -> Quaternion:
    return Quaternion(0.0, *_unit_vector(rng, 3))


@dataclass(frozen=True, slots=True)
class SpectralSphere:
    """Similarity class {q : Re q == re, |q| == modulus}."""

    re: float
    modulus: float

    def is_point(self, tol: float = 1e-12) -> bool:
        return abs(self.modulus - abs(self.re)) <= tol

    def representative(self) -> Quaternion:
        imag = math.sqrt(max(self.modulus ** 2 - self.re ** 2, 0.0))
        return Quaternion(self.re, imag, 0.0, 0.0)

    def sample(self, count: int, seed=0) -> list[Quaternion]:
        rng = np.random.default_rng(seed)
        imag = math.sqrt(max(self.modulus ** 2 - self.re ** 2, 0.0))
        return [Quaternion(self.re, 0, 0, 0) + _unit_imaginary(rng) * imag
                for _ in range(count)]

    def to_json(self) -> dict:
        return {"re": self.re, "modulus": self.modulus}


@dataclass(frozen=True, slots=True)
class RightSpectrum:
    spheres: tuple[SpectralSphere, ...]

    @classmethod
    def from_pairs(cls, pairs, collapse_tol: float = COLLAPSE_TOL) -> "RightSpectrum":
        ordered = sorted(pairs, key=lambda p: (-p[0], -p[1]))
        merged: list[list] = []
        for re, mod in ordered:
            if merged and abs(re - merged[-1][0] / merged[-1][2]) <= collapse_tol \
                    and abs(mod - merged[-1][1] / merged[-1][2]) <= collapse_tol:
                merged[-1][0] += re
                merged[-1][1] += mod
                merged[-1][2] += 1
            else:
                merged.append([re, mod, 1])
        spheres = tuple(SpectralSphere(s / n, m / n) for s, m, n in merged)
        return cls(spheres)

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


def _clamped_sqrt(radicand: float) -> float:
    # Small negative radicands are roundoff from cancellation; anything
    # decidedly negative means the input was not a group element.
    if radicand < -1e-9:
        raise NegativeRadicandError(f"radicand {radicand:.3e} below -1e-9")
    return math.sqrt(max(radicand, 0.0))


def _sphere_pairs(trace_half: float, dlt: float):
    """The (re, modulus) data of both spectral spheres.

    trace_half is a0 + d0.  The larger real part carries the larger modulus
    exactly when a0 + d0 >= 0; negating a loxodromic element swaps which
    root of the modulus equation belongs to which real part, so the pairing
    must follow the sign of the trace.
    """
    A = trace_half
    sgn = 1.0 if dlt > 0.0 else (-1.0 if dlt < 0.0 else 0.0)
    inner = (A * A + dlt - 4.0) ** 2 + 8.0 * dlt * (sgn + 1.0)
    xprime = (A * A + dlt + _clamped_sqrt(inner)) / 4.0
    half_split = 0.5 * _clamped_sqrt(2.0 * xprime - 2.0 - dlt)
    mod_split = _clamped_sqrt(xprime * xprime - 1.0)
    re_hi, re_lo = 0.5 * A + half_split, 0.5 * A - half_split
    if A >= 0.0:
        m2_hi, m2_lo = xprime + mod_split, xprime - mod_split
    else:
        m2_hi, m2_lo = xprime - mod_split, xprime + mod_split
    return [(re_hi, math.sqrt(max(m2_hi, 0.0))),
            (re_lo, math.sqrt(max(m2_lo, 0.0)))]


def right_spectrum(t: GroupElement) -> RightSpectrum:
    """Spectral spheres from the unified trace/delta formula."""
    m = t.m
    return RightSpectrum.from_pairs(_sphere_pairs(m.a.w + m.d.w, delta(m)))


def right_spectrum_casewise(t: GroupElement) -> RightSpectrum:
    """Spectral spheres from the case-by-case description.

    An independent route kept deliberately close to the entry data: the
    off-diagonal cases work through d0, the generic case through the real
    part of conj(c)^-1 b conj(d) + d rather than a0 + d0.
    """
    case, cls = stratum(t)
    m = t.m
    if case is DiagonalizationCase.CASE1:
        return RightSpectrum.from_pairs([(m.a.w, 1.0), (m.d.w, 1.0)])
    if case is DiagonalizationCase.CASE2:
        d0 = m.d.w
        if cls is MoebiusClass.SIMPLE_PARABOLIC:
            return RightSpectrum.from_pairs([(d0, abs(d0))])
        if cls is MoebiusClass.SIMPLE_LOXODROMIC:
            root = math.sqrt(d0 * d0 - 1.0)
            return RightSpectrum.from_pairs(
                [(d0 + root, abs(d0 + root)), (d0 - root, abs(d0 - root))])
        return RightSpectrum.from_pairs([(d0, 1.0)])
    trace_half = (m.c.conjugate().inverse() * m.b * m.d.conjugate() + m.d).w
    if cls is MoebiusClass.COMPOUND_PARABOLIC:
        return RightSpectrum.from_pairs([(0.5 * trace_half, 1.0)])
    dlt = delta(m)
    if cls is MoebiusClass.COMPOUND_ELLIPTIC:
        root = math.sqrt(-dlt)
        return RightSpectrum.from_pairs(
            [(0.5 * (trace_half + root), 1.0), (0.5 * (trace_half - root), 1.0)])
    return RightSpectrum.from_pairs(_sphere_pairs(trace_half, dlt))


def verify_s_point(m: Mat2H, s: Quaternion, tol: float = SPECTRUM_TOL) -> bool:
    """Whether s solves the S-spectrum equation: T^2 - 2 Re(s) T + |s|^2 I
    is singular."""
    probe = (m @ m) - (2.0 * s.w) * m + s.norm_sq() * Mat2H.identity()
    return probe.is_singular(tol)


def right_spectrum_oracle(m: Mat2H) -> RightSpectrum:
    """Sphere data read off the eigenvalues of the complex adjoint chi(M).

    The four chi eigenvalues project onto (re, modulus) pairs in duplicate;
    clustering the projections recovers the spectral spheres without any
    of the closed-form machinery above.
    """
    eigenvalues = np.linalg.eigvals(m.chi())
    pairs = sorted((float(e.real), float(abs(e))) for e in eigenvalues)
    clusters: list[list[float]] = []
    for re, mod in pairs:
        if clusters:
            n = clusters[-1][2]
            if (abs(re - clusters[-1][0] / n) <= 1e-8 * (1.0 + abs(re))
                    and abs(mod - clusters[-1][1] / n) <= 1e-8 * (1.0 + mod)):
                clusters[-1][0] += re
                clusters[-1][1] += mod
                clusters[-1][2] += 1
                continue
        clusters.append([re, mod, 1])
    return RightSpectrum.from_pairs([(s / n, m_ / n) for s, m_, n in clusters])


# -- left spectrum ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SphereFamily:
    """Left-eigenvalue family {alpha + beta * q : q unit imaginary}.

    The image is a round 2-sphere; beta fixes its radius and orientation,
    and need not point in an imaginary direction itself.
    """

    alpha: Quaternion
    beta: Quaternion

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
        rng = np.random.default_rng(seed)
        return [self.alpha + self.beta * _unit_imaginary(rng)
                for _ in range(count)]

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.as_list(),
            "beta": self.beta.as_list(),
            "center_re": self.center_re,
            "offset": self.offset.as_list(),
            "axis": self.axis.as_list(),
            "radius": self.radius,
        }


@dataclass(frozen=True, slots=True)
class LeftSpectrumDescription:
    points: tuple[Quaternion, ...]
    families: tuple[SphereFamily, ...]

    def to_json(self) -> dict:
        return {"points": [p.as_list() for p in self.points],
                "families": [f.to_json() for f in self.families]}


def _quad_residual(q: Quaternion, B: Quaternion, C: Quaternion) -> float:
    return (q * q + B * q + C).norm()


def _quadratic_roots(B: Quaternion, C: Quaternion) -> list[Quaternion]:
    """Roots of q^2 + B q + C == 0 for B, C not both real (Huang and So).

    The shift q = y - Re(B)/2 leaves y^2 + b y + c == 0 with b = Im B.  Every
    root also solves y^2 - T y + N == 0 with T = 2 Re y and N = |y|^2, so
    (b + T) y == N - c, and (T, N) follows from the real resolvent cubic
    z^3 + 2 beta z^2 + (beta^2 - 4E) z - D^2 == 0 in z = T^2, where
    beta = |b|^2 + 2 Re c, E = |c|^2 and D = 2 <b, Im c>.
    """
    b = B.imag()
    c = C - 0.25 * B.w * B.w - b * (0.5 * B.w)
    nb2 = b.norm_sq()
    beta = nb2 + 2.0 * c.w
    D = 2.0 * b.dot(c)
    # beta^2 - 4E with the Re(c)^2 terms cancelled by hand: the direct
    # difference loses every digit when B and C are nearly real.
    gap = nb2 * nb2 + 4.0 * c.w * nb2 - 4.0 * c.imag().norm_sq()
    # z and N are of the size of |b|^2 + 2|c|, gap of its square.
    size = nb2 + 2.0 * c.norm()
    if D == 0.0:
        z = 2.0 * c.norm() - beta
    else:
        # The root of largest real part is the one with z + beta > 0.
        z = float(max(np.roots([1.0, 2.0 * beta, gap, -D * D]).real))
    if z > DOUBLE_ROOT_TOL * size:
        pairs = [(t, 0.5 * (z + beta + D / t))
                 for t in (math.sqrt(z), -math.sqrt(z))]
    else:
        # T == 0.  At a double root z and gap are zero up to roundoff, and
        # their square roots would split it into two points ~1e-8 apart.
        root = math.sqrt(gap) if gap > DOUBLE_ROOT_TOL * size * size else 0.0
        pairs = [(0.0, 0.5 * (beta + root)), (0.0, 0.5 * (beta - root))]
    return [(b + t).inverse() * (n - c) - 0.5 * B.w
            for t, n in pairs if t != 0.0 or nb2 > 0.0]


def left_eigenvalues(m: Mat2H) -> LeftSpectrumDescription:
    """All left eigenvalues of M, as isolated points and/or a sphere family.

    With b != 0, lambda = a + b q for the roots q of q^2 + B q + C == 0.
    Real B and C give two real roots or a sphere family; otherwise the
    Huang-So formulas give at most two candidates.  Every emitted point
    satisfies the quadratic residual bound, which already makes M - lambda I
    singular: (1, q) is its null vector up to |b| times that residual.  When
    no candidate survives the filter the computation is reported as failed
    rather than silently empty.
    """
    eps = EPS_CLASS * (1.0 + m.frobenius())
    if m.b.norm() <= eps:
        points = [m.a]
        if (m.a - m.d).norm() > eps:
            points.append(m.d)
        points.sort(key=lambda p: (p.w, p.x, p.y, p.z))
        return LeftSpectrumDescription(tuple(points), ())

    binv = m.b.inverse()
    B = binv * (m.a - m.d)
    C = -(binv * m.c)
    if B.imag_norm() <= 1e-10 and C.imag_norm() <= 1e-10:
        # Real coefficients: either two real roots or a whole sphere.
        disc = B.w * B.w - 4.0 * C.w
        if disc < -1e-12:
            radius = math.sqrt(C.w - 0.25 * B.w * B.w)
            family = SphereFamily(m.a - m.b * (0.5 * B.w), m.b * radius)
            return LeftSpectrumDescription((), (family,))
        terms = B.w * B.w + 4.0 * abs(C.w)
        root = math.sqrt(disc) if disc > DOUBLE_ROOT_TOL * terms else 0.0
        candidates = [Quaternion.real(0.5 * (-B.w + root)),
                      Quaternion.real(0.5 * (-B.w - root))]
    else:
        candidates = _quadratic_roots(B, C)

    seen: list[Quaternion] = []
    for q in candidates:
        if _quad_residual(q, B, C) > QUADRATIC_RESIDUAL_TOL:
            continue
        lam = m.a + m.b * q
        if any((lam - known).norm() <= 1e-8 for known in seen):
            continue
        seen.append(lam)
    if not seen:
        raise NoRootFoundError("no left eigenvalue survived the residual filter")
    seen.sort(key=lambda p: (p.w, p.x, p.y, p.z))
    return LeftSpectrumDescription(tuple(seen), ())
