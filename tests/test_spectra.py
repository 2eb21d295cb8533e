"""Right/S/left spectra: closed forms, the chi oracle, and golden spheres."""

import math

import numpy as np
import pytest

from quatu11 import (Mat2H, MoebiusClass, QI, QJ, Quaternion, RightSpectrum,
                     SpectralSphere, classify, inverse_u11, left_eigenvalues,
                     random_element, right_spectrum, right_spectrum_casewise,
                     right_spectrum_oracle, validate, verify_s_point)
from quatu11.errors import NegativeRadicandError
from quatu11.spectra import _clamped_sqrt

R2 = math.sqrt(2)

ROTOR = validate(Mat2H(Quaternion(R2), QI, -QI, Quaternion(R2)))


def _spheres(t):
    return [(s.re, s.modulus) for s in right_spectrum(t).spheres]


def test_sphere_helpers():
    s = SpectralSphere(1.0, math.sqrt(5.0))
    assert not s.is_point()
    rep = s.representative()
    assert rep == Quaternion(1.0, 2.0, 0.0, 0.0)
    for q in s.sample(10, seed=1):
        assert abs(q.w - 1.0) < 1e-12
        assert abs(q.norm() - math.sqrt(5.0)) < 1e-12
    assert SpectralSphere(-2.0, 2.0).is_point()
    assert s.to_json() == {"re": 1.0, "modulus": math.sqrt(5.0)}


def test_from_pairs_sorts_and_merges():
    sigma = RightSpectrum.from_pairs([(0.0, 1.0), (1.0, 1.0), (1.0 + 1e-12, 1.0)])
    assert len(sigma.spheres) == 2
    flat = [v for s in sigma.spheres for v in (s.re, s.modulus)]
    assert flat == pytest.approx([1.0, 1.0, 0.0, 1.0], abs=1e-11)


def test_max_deviation_is_symmetric():
    a = RightSpectrum.from_pairs([(1.0, 1.0), (0.0, 1.0)])
    b = RightSpectrum.from_pairs([(1.0, 1.5), (0.0, 1.0)])
    assert a.max_deviation(b) == pytest.approx(0.5)
    assert b.max_deviation(a) == pytest.approx(0.5)
    assert a.max_deviation(a) == 0.0


def test_example_spectrum(example):
    got = _spheres(example)
    assert got[0] == pytest.approx((1.0, 1.0), abs=1e-10)
    assert got[1] == pytest.approx((0.0, 1.0), abs=1e-10)


def test_identity_spectrum_collapses():
    eye = validate(Mat2H.identity())
    assert _spheres(eye) == [(1.0, 1.0)]


def test_diagonal_spectrum():
    both = validate(Mat2H.diag(QI, QJ))
    assert _spheres(both) == [(0.0, 1.0)]
    split = validate(Mat2H.diag(Quaternion(0.5, math.sqrt(0.75), 0, 0), QJ))
    assert _spheres(split) == pytest.approx([(0.5, 1.0), (0.0, 1.0)])


def test_rotor_spectrum_is_two_real_points():
    got = _spheres(ROTOR)
    assert got[0] == pytest.approx((R2 + 1.0, R2 + 1.0), abs=1e-12)
    assert got[1] == pytest.approx((R2 - 1.0, R2 - 1.0), abs=1e-12)
    for s in right_spectrum(ROTOR).spheres:
        assert s.is_point(1e-12)


def test_boost_spectrum_is_exponential_pair():
    t = 0.7
    boost = validate(Mat2H(Quaternion(math.cosh(t)), Quaternion(math.sinh(t)),
                           Quaternion(math.sinh(t)), Quaternion(math.cosh(t))))
    got = _spheres(boost)
    assert got[0] == pytest.approx((math.exp(t), math.exp(t)), abs=1e-12)
    assert got[1] == pytest.approx((math.exp(-t), math.exp(-t)), abs=1e-12)


def test_negated_element_swaps_the_pairing():
    # negation flips the trace sign; moduli must follow their real parts
    t = 0.7
    boost = validate(-Mat2H(Quaternion(math.cosh(t)), Quaternion(math.sinh(t)),
                            Quaternion(math.sinh(t)), Quaternion(math.cosh(t))))
    sigma = right_spectrum(boost)
    oracle = right_spectrum_oracle(boost.m)
    assert sigma.max_deviation(oracle) < 1e-10


def test_compound_parabolic_collapses_to_one_sphere():
    # the casewise dispatch sees delta == 0 and emits one unit sphere; the
    # unified formula splits it by sqrt-of-roundoff but stays within 1e-7
    t = random_element([70, 0], class_hint="CompoundParabolic")
    casewise = right_spectrum_casewise(t)
    assert len(casewise.spheres) == 1
    assert casewise.spheres[0].modulus == pytest.approx(1.0, abs=1e-10)
    assert right_spectrum(t).max_deviation(casewise) < 1e-7


def test_unified_casewise_and_oracle_agree(class_pool, generic_pool):
    elements = [t for pool in class_pool.values() for t in pool] + generic_pool[:20]
    for t in elements:
        unified = right_spectrum(t)
        casewise = right_spectrum_casewise(t)
        oracle = right_spectrum_oracle(t.m)
        assert unified.max_deviation(casewise) <= 1e-7
        assert unified.max_deviation(oracle) <= 1e-7


def test_verify_s_point_accepts_and_rejects(example):
    for sphere in right_spectrum(example).spheres:
        for q in sphere.sample(10, seed=2):
            assert verify_s_point(example.m, q)
        rep = sphere.representative()
        assert not verify_s_point(example.m, Quaternion(rep.w + 0.05, rep.x, rep.y, rep.z))
    assert verify_s_point(Mat2H.identity(), Quaternion(1.0))
    assert verify_s_point(example.m, QI)          # on the {re 0, mod 1} sphere
    assert not verify_s_point(example.m, Quaternion(0.5))  # on neither sphere


def test_clamped_sqrt_window():
    assert _clamped_sqrt(-1e-12) == 0.0
    assert _clamped_sqrt(4.0) == 2.0
    with pytest.raises(NegativeRadicandError):
        _clamped_sqrt(-1e-6)


# -- left spectrum ---------------------------------------------------------


def _point_set(desc):
    return {tuple(round(v, 9) for v in p.as_list()) for p in desc.points}


def test_left_spectrum_of_diagonals_is_the_entries():
    got = left_eigenvalues(Mat2H.diag(QI, QJ))
    assert not got.families
    assert _point_set(got) == {(0, 1, 0, 0), (0, 0, 1, 0)}


def test_left_spectrum_is_not_similarity_invariant():
    # diag(i, j) and diag(i, -j) are conjugate but have different left spectra
    plus = left_eigenvalues(Mat2H.diag(QI, QJ))
    minus = left_eigenvalues(Mat2H.diag(QI, -QJ))
    assert _point_set(plus) != _point_set(minus)
    assert _point_set(minus) == {(0, 1, 0, 0), (0, 0, -1, 0)}


def test_rotor_left_spectrum_is_a_sphere_family():
    desc = left_eigenvalues(ROTOR.m)
    assert not desc.points
    fam = desc.families[0]
    # center sqrt(2), radius 1, and every member has vanishing i-component
    assert fam.center_re == pytest.approx(R2, abs=1e-12)
    assert fam.radius == pytest.approx(1.0, abs=1e-12)
    for lam in fam.sample(30, seed=5):
        assert abs(lam.x) < 1e-12
        assert abs((lam.w - R2) ** 2 + lam.y ** 2 + lam.z ** 2 - 1.0) < 1e-10
        assert (ROTOR.m - Mat2H.diag(lam, lam)).is_singular(1e-7)


def test_rotor_square_left_family():
    square = ROTOR.m @ ROTOR.m
    fam = left_eigenvalues(square).families[0]
    assert fam.center_re == pytest.approx(3.0, abs=1e-9)
    assert fam.radius ** 2 == pytest.approx(8.0, abs=1e-9)
    for lam in fam.sample(20, seed=6):
        assert (square - Mat2H.diag(lam, lam)).is_singular(1e-6)


def _left_pool(class_pool, generic_pool):
    """Every class, generic members, and 300 seeded off-group Gaussian
    matrices at scales 1e-3, 1 and 1e3."""
    pool = [t.m for members in class_pool.values() for t in members]
    pool += [t.m for t in generic_pool[:25]]
    rng = np.random.default_rng(176)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(100):
            v = scale * rng.standard_normal(16)
            pool.append(Mat2H(*(Quaternion(*v[k:k + 4]) for k in range(0, 16, 4))))
    return pool


def test_left_points_pass_the_singularity_oracle(class_pool, generic_pool):
    # left_eigenvalues filters on the quadratic residual alone; this is the
    # check that the residual bound implies singularity of M - lambda I
    for m in _left_pool(class_pool, generic_pool):
        desc = left_eigenvalues(m)
        assert desc.points or desc.families
        for lam in desc.points:
            assert (m - Mat2H.diag(lam, lam)).is_singular(1e-7)


def test_left_eigenvalues_builds_no_chi(class_pool, generic_pool, monkeypatch):
    calls = []
    chi = Mat2H.chi

    def counting(self):
        calls.append(self)
        return chi(self)

    monkeypatch.setattr(Mat2H, "chi", counting)
    for m in _left_pool(class_pool, generic_pool):
        left_eigenvalues(m)
    assert len(calls) == 0


def test_left_spectrum_json_shape():
    doc = left_eigenvalues(ROTOR.m).to_json()
    assert set(doc) == {"points", "families"}
    fam = doc["families"][0]
    assert set(fam) == {"alpha", "beta", "center_re", "offset", "axis", "radius"}


@pytest.mark.parametrize("cls", ["SimpleParabolic", "SimpleElliptic"])
def test_left_spectrum_never_fails_on_double_roots(cls):
    # these classes put the quadratic at or near a double root, where the
    # roots are only sqrt(eps)-conditioned
    for k in range(60):
        m = random_element([77, k], class_hint=cls).m
        desc = left_eigenvalues(m)
        assert not desc.families
        assert 1 <= len(desc.points) <= 2
        for lam in desc.points:
            assert (m - Mat2H.diag(lam, lam)).is_singular(1e-7)


def test_simple_parabolic_double_root_is_one_point():
    # the exact double left eigenvalue is sign(a0) * 1; the two Huang-So
    # candidates straddle it by O(sqrt(eps)) and must come out as one point
    for k in range(60):
        m = random_element(k, class_hint="SimpleParabolic").m
        desc = left_eigenvalues(m)
        assert not desc.families
        assert len(desc.points) == 1
        exact = Quaternion(math.copysign(1.0, m.a.w))
        assert (desc.points[0] - exact).norm() <= 1e-12


def test_close_distinct_left_eigenvalues_stay_two_points():
    # only a double root up to roundoff is one point; roots 1e-6 apart on a
    # triangular matrix and 2e-5 apart on a conjugated near-parabolic
    # loxodromic element with |b| ~ 2 are two
    tri = Mat2H(Quaternion(1.0), Quaternion(1.0), Quaternion(0.0),
                Quaternion(1.0 + 1e-6))
    points = left_eigenvalues(tri).points
    assert len(points) == 2
    assert (points[0] - Quaternion(1.0)).norm() <= 1e-15
    assert (points[1] - Quaternion(1.0 + 1e-6)).norm() <= 1e-15

    mu, s = 0.7, 1e-5
    parabolic = Mat2H(Quaternion(1.0, mu), Quaternion(0.0, -mu),
                      Quaternion(0.0, mu), Quaternion(1.0, -mu))
    boost = Mat2H(math.cosh(s), math.sinh(s), math.sinh(s), math.cosh(s))
    g = random_element(2)
    m = g.m @ parabolic @ boost @ inverse_u11(g).m
    assert classify(validate(m)) == MoebiusClass.SIMPLE_LOXODROMIC
    assert m.b.norm() > 1.0
    desc = left_eigenvalues(m)
    assert len(desc.points) == 2
    assert (desc.points[0] - desc.points[1]).norm() > 1e-5
    for lam in desc.points:
        assert (m - Mat2H.diag(lam, lam)).is_singular(1e-7)


def test_left_spectrum_near_real_coefficients():
    # B ~ 1e-16 and Im C ~ 5e-5: beta^2 - 4E must not be formed directly
    m = random_element([10, 2, 4], class_hint="SimpleLoxodromic").m
    desc = left_eigenvalues(m)
    assert len(desc.points) == 2
    for lam in desc.points:
        assert (m - Mat2H.diag(lam, lam)).is_singular(1e-7)
