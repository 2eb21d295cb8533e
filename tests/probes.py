"""Seeded input families and bit references shared by the tier-1 tests.

Each family is a function that builds the same rows on every call.  Its
docstring names the seed and the numpy draws of each row, in order, so a
row can be rebuilt outside the tests.  The bit references are the single
copies of the Quaternion-form helpers the test modules compare the library
against, and the digest helpers turn outputs into the rows and chunk
digests that tests/golden/*_digest.json files pin.
"""

import hashlib
import math

import numpy as np

from quatu11 import (Mat2H, MoebiusClass, QI, Quaternion, random_element,
                     validate)

R2 = math.sqrt(2)

CLASS_NAMES = [c.value for c in MoebiusClass]

# sinh t of each D1 B(t) D2 band drawn from default_rng(303)
BAND_SINH = (1e-9, 1e-7, 1e-5, 1e-4, 1e-3)


# -- bit references ---------------------------------------------------------


def parts_matrix(parts) -> Mat2H:
    """Mat2H from 16 real parts, those of a, b, c and d in turn, each
    converted with float()."""
    parts = [float(p) for p in parts]
    return Mat2H(*(Quaternion(*parts[k:k + 4]) for k in range(0, 16, 4)))


def quaternion_matmul(x: Mat2H, y: Mat2H) -> Mat2H:
    """x @ y with each entry formed as Quaternion p * r + q * s."""
    return Mat2H(x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
                 x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d)


def hex_parts(m: Mat2H) -> list:
    """float.hex of the 16 parts of m, those of a, b, c and d in turn."""
    return [float(v).hex() for q in (m.a, m.b, m.c, m.d) for v in q.as_list()]


def same_bits(got, want) -> bool:
    """Pairwise equal floats of equal sign, so -0.0 differs from 0.0; the
    two sequences must have the same length."""
    return all(g == w and math.copysign(1.0, g) == math.copysign(1.0, w)
               for g, w in zip(got, want, strict=True))


def hex_row(values) -> str:
    """One digest row: float.hex of each float, str of anything else (None,
    a count), joined by spaces."""
    return " ".join(v.hex() if isinstance(v, float) else str(v)
                    for v in values)


def error_row(exc: Exception) -> str:
    """The digest row of a raised exception: its type and message."""
    return f"{type(exc).__name__}: {exc}"


def chunk_digests(rows, size: int = 64) -> list:
    """sha256 of each run of size rows, one row a line: a mismatch names
    the chunks whose rows moved."""
    return [hashlib.sha256("".join(f"{row}\n" for row in rows[k:k + size])
                           .encode()).hexdigest()
            for k in range(0, len(rows), size)]


# -- fixed elements ---------------------------------------------------------


def worked_example():
    """The compound elliptic element [[2+i, -r2+r2i], [-r2+r2i, -1-2i]]."""
    a = Quaternion(2.0, 1.0, 0.0, 0.0)
    b = Quaternion(-R2, R2, 0.0, 0.0)
    d = Quaternion(-1.0, -2.0, 0.0, 0.0)
    return validate(Mat2H(a, b, b, d))


def rotor():
    """The simple loxodromic element [[r2, i], [-i, r2]], with b == conj(c)."""
    return validate(Mat2H(Quaternion(R2), QI, -QI, Quaternion(R2)))


# A CompoundParabolic element, as float.hex parts of a, b, c and d, that a
# random-restart hill climb found over the 16 normals of the sampler's
# CompoundParabolic construction (same ratio window 0.05-0.95 and kappa1 >
# 1e-3 floor).  It validates at residual 4.9e-15, and its three
# right-spectrum routes differ by up to 1.13e-7, past SPECTRUM_TOL.
SEARCHED_COMPOUND_PARABOLIC = (
    "0x1.7d2982c8c5f3dp+1", "-0x1.2bdf9b2005947p-2",
    "0x1.02c85443de27cp-2", "0x1.de152672a9f00p-7",
    "0x1.8622428a1fb3ap+0", "-0x1.d920b0ef1e382p+0",
    "-0x1.8234be3bf446fp+0", "0x1.d2c1a77603f18p-5",
    "-0x1.682c6602ea12dp-1", "-0x1.c9600bc717d0ep+0",
    "-0x1.c72104191fbfbp+0", "0x1.14de73aa27d81p+0",
    "-0x1.431231a7a175ep+1", "0x1.cd45e3fed8a54p-3",
    "-0x1.78c25549c90e6p+0", "0x1.4fc6b17916ca1p-1",
)


def searched_compound_parabolic() -> Mat2H:
    """The matrix of SEARCHED_COMPOUND_PARABOLIC; no random draws."""
    return parts_matrix(map(float.fromhex, SEARCHED_COMPOUND_PARABOLIC))


def non_finite_matrices() -> list:
    """(matrix, norm as printed) rows: the worked example with one part of
    a, b or d set to inf, -inf or NaN; no random draws."""
    m = worked_example().m
    parts = [v for q in (m.a, m.b, m.c, m.d) for v in q.as_list()]
    rows = []
    for value, shown in ((math.inf, "inf"), (-math.inf, "inf"),
                         (math.nan, "nan")):
        for k in (0, 5, 15):
            row = list(parts)
            row[k] = value
            rows.append((parts_matrix(row), shown))
    return rows


def huge_finite_matrices() -> list:
    """Finite matrices whose norm overflows: the worked example with one
    part of a, b or d set to +-1e154, +-1e200, +-1e300 or +-1.5e308, and
    a = d = 1.5e308, b = c = 1.5e308 i; no random draws."""
    m = worked_example().m
    parts = [v for q in (m.a, m.b, m.c, m.d) for v in q.as_list()]
    rows = []
    for value in (1e154, 1e200, 1e300, 1.5e308):
        for sign in (1.0, -1.0):
            for k in (0, 5, 15):
                row = list(parts)
                row[k] = sign * value
                rows.append(parts_matrix(row))
    big = 1.5e308
    rows.append(Mat2H(Quaternion(big), Quaternion(0.0, big),
                      Quaternion(0.0, big), Quaternion(big)))
    return rows


# -- sampled members --------------------------------------------------------


def class_pool() -> dict:
    """Six elements of each Moebius class, keyed by class name:
    random_element([31, k], class_hint=name) for k = 0..5."""
    return {name: [random_element([31, k], class_hint=name) for k in range(6)]
            for name in CLASS_NAMES}


def generic_pool() -> list:
    """Sixty hint-free elements, random_element([32, k]) for k = 0..59."""
    return [random_element([32, k]) for k in range(60)]


def signed_zero_inputs() -> list:
    """Case-2 and Case-3 elements whose entries have signed-zero parts; no
    random draws."""
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


# -- D1 B(t) D2 bands: exact near-diagonal members --------------------------
#
# Each unit quaternion of D1 and D2 is one standard_normal(4), divided by
# its norm.  The two norms differ in the last bit on some rows, and the
# pinned counts of test_diagonalize (BAND_CLAIM_FAILURES) and the
# left-spectrum pools depend on those bits, so the bands keep both.


def _unit_numpy_norm(rng) -> Quaternion:
    v = rng.standard_normal(4)
    return Quaternion(*(v / np.linalg.norm(v)).tolist())


def _unit_python_norm(rng) -> Quaternion:
    v = rng.standard_normal(4).tolist()
    n = math.sqrt(sum(p * p for p in v))
    return Quaternion(*(p / n for p in v))


def _band_row(rng, unit, sh: float):
    ch = math.sqrt(1.0 + sh * sh)
    d1 = Mat2H.diag(unit(rng), unit(rng))
    return validate(d1 @ Mat2H(ch, sh, sh, ch)
                    @ Mat2H.diag(unit(rng), unit(rng)))


def band_numpy_norm(sh: float, count: int) -> list:
    """count validated rows D1 B(t) D2 with sinh t = sh.  One
    default_rng(303); per row, the four units of D1 then D2, each
    standard_normal(4) divided by its np.linalg.norm."""
    rng = np.random.default_rng(303)
    return [_band_row(rng, _unit_numpy_norm, sh) for _ in range(count)]


def band_python_norm(sh: float, count: int) -> list:
    """band_numpy_norm with each norm summed in Python, in part order."""
    rng = np.random.default_rng(303)
    return [_band_row(rng, _unit_python_norm, sh) for _ in range(count)]


def threshold_band() -> list:
    """300 validated rows D1 B(t) D2 with sinh t log-uniform in [1e-10.5,
    1e-8], so |b| and |c| straddle the stratum threshold EPS_CLASS * (1 +
    ||T||_F).  One default_rng(95); per row, uniform(-10.5, -8.0) for log10
    sinh t, then the four units of band_numpy_norm."""
    rng = np.random.default_rng(95)
    return [_band_row(rng, _unit_numpy_norm, 10.0 ** rng.uniform(-10.5, -8.0))
            for _ in range(300)]


# -- off-group part rows ----------------------------------------------------


def gaussian_scales(seed: int, per_scale: int,
                    exponents=range(-6, 7)) -> list:
    """Gaussian rows at scales 10**e, per_scale rows for each e in
    exponents, as 16-tuples of floats.  One default_rng(seed); per row,
    standard_normal(16) times the scale."""
    rng = np.random.default_rng(seed)
    return [tuple((10.0 ** e * rng.standard_normal(16)).tolist())
            for e in exponents for _ in range(per_scale)]


def dyadic_signed_zero(seed: int, count: int, values) -> list:
    """count rows of 16 parts from values, a random share of them signed
    zeros, as 16-tuples of floats: products are exact, so zero parts decide
    the sign of zeros in sums.  One default_rng(seed); per row, random(16)
    and random() (a part is zero where the first is below the second),
    standard_normal(16) (the sign of each zero), then choice(values, 16)."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        zeros = rng.random(16) < rng.random()
        rows.append(tuple(np.where(
            zeros, np.copysign(0.0, rng.standard_normal(16)),
            rng.choice(values, 16)).tolist()))
    return rows
