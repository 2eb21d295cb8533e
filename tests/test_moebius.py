"""Ball action and the six-way classification."""

import itertools
import math

import numpy as np
import pytest

from quatu11 import (Mat2H, MoebiusClass, QI, QJ, Quaternion, conjugate,
                     diagonalize_elliptic, is_elliptic, random_element,
                     right_spectrum_casewise, validate)
from quatu11.errors import BallViolationError, MembershipError
from quatu11.group import GroupElement
from quatu11.moebius import _derive, apply, classify, delta, evidence

from probes import R2, gaussian_scales, parts_matrix, rotor, same_bits

ROTOR = rotor()


def test_example_is_compound_elliptic(example):
    assert classify(example) is MoebiusClass.COMPOUND_ELLIPTIC
    assert is_elliptic(example)


def test_diagonal_classes():
    assert classify(validate(Mat2H.identity())) is MoebiusClass.SIMPLE_ELLIPTIC
    assert classify(validate(Mat2H.diag(QI, QJ))) is MoebiusClass.SIMPLE_ELLIPTIC
    mixed = validate(Mat2H.diag(Quaternion(0.5, math.sqrt(0.75), 0, 0), QJ))
    assert classify(mixed) is MoebiusClass.COMPOUND_ELLIPTIC
    flip = validate(Mat2H.diag(Quaternion(-1.0), Quaternion(1.0)))
    assert classify(flip) is MoebiusClass.COMPOUND_ELLIPTIC


def test_matched_offdiagonal_classes():
    assert classify(ROTOR) is MoebiusClass.SIMPLE_LOXODROMIC
    mu = 0.4
    shear = validate(Mat2H(Quaternion(1, mu, 0, 0), Quaternion(0, -mu, 0, 0),
                           Quaternion(0, mu, 0, 0), Quaternion(1, -mu, 0, 0)))
    assert classify(shear) is MoebiusClass.SIMPLE_PARABOLIC
    d = Quaternion(0.5, math.sqrt(2.0 - 0.25), 0, 0)  # |d|^2 = 1 + |c|^2
    turn = validate(Mat2H(d.conjugate(), Quaternion(1.0), Quaternion(1.0), d))
    assert classify(turn) is MoebiusClass.SIMPLE_ELLIPTIC


def test_generic_case_dispatch(example):
    assert classify(example) is MoebiusClass.COMPOUND_ELLIPTIC
    for name in ("CompoundParabolic", "CompoundLoxodromic"):
        t = random_element([80, 1], class_hint=name)
        assert classify(t).value == name


def test_mismatched_offdiagonal_is_rejected():
    bad = GroupElement(Mat2H(Quaternion(1.0), QI, Quaternion(), Quaternion(1.0)), 0.0)
    with pytest.raises(MembershipError):
        classify(bad)
    with pytest.raises(MembershipError):
        right_spectrum_casewise(bad)
    with pytest.raises(MembershipError):
        diagonalize_elliptic(bad)


def test_coarse_names():
    assert {c.value: c.coarse for c in MoebiusClass} == {
        "SimpleElliptic": "elliptic", "CompoundElliptic": "elliptic",
        "SimpleParabolic": "parabolic", "CompoundParabolic": "parabolic",
        "SimpleLoxodromic": "loxodromic", "CompoundLoxodromic": "loxodromic"}
    # stored on each member, not recomputed on each read
    assert all("coarse" in vars(c) for c in MoebiusClass)


def test_evidence_reports_the_dispatch_data(example):
    ev = evidence(example)
    assert ev["a0"] == 2.0 and ev["d0"] == -1.0
    assert ev["delta"] == pytest.approx(-1.0, abs=1e-12)
    assert ev["b_minus_conj_c_norm"] == pytest.approx(2.0 * R2)
    assert set(ev) == {"a0", "d0", "b_minus_conj_c_norm", "b_norm", "c_norm", "delta"}


def _delta_by_quaternions(m: Mat2H) -> float:
    return (m.b - m.c.conjugate()).norm_sq() - (m.a.w - m.d.w) ** 2


def _delta_samples(class_pool):
    for pool in class_pool.values():
        yield from (t.m for t in pool)
    yield from (parts_matrix(p) for p in gaussian_scales(73, 10))
    # b and c built from signed zeros and one nonzero value, a and d real
    for bits in itertools.product((0.0, -0.0, 1.5), repeat=4):
        b = Quaternion(bits[0], bits[1], -0.0, bits[2])
        c = Quaternion(bits[3], -bits[1], bits[2], 0.0)
        yield Mat2H(Quaternion(bits[0]), b, c, Quaternion(-bits[3]))


def test_delta_matches_the_quaternion_route_bit_for_bit(class_pool):
    count = 0
    for m in _delta_samples(class_pool):
        assert delta(m).hex() == _delta_by_quaternions(m).hex(), m
        # the stratum record: |b - conj(c)|^2, delta, |b|, |c|
        got = _derive(m._p)[:4]
        want = ((m.b - m.c.conjugate()).norm_sq(), _delta_by_quaternions(m),
                m.b.norm(), m.c.norm())
        assert same_bits(got, want), m
        count += 1
    assert count == 36 + 130 + 81


def test_evidence_gap_matches_the_quaternion_route(class_pool):
    for t in (t for pool in class_pool.values() for t in pool):
        got = evidence(t)["b_minus_conj_c_norm"]
        assert got.hex() == (t.m.b - t.m.c.conjugate()).norm().hex()


def test_apply_golden_value():
    # at the origin the action evaluates to b d^-1
    img = apply(ROTOR, Quaternion())
    want = QI * Quaternion(R2).inverse()
    assert (img - want).norm() < 1e-15


def test_identity_acts_trivially():
    eye = validate(Mat2H.identity())
    z = Quaternion(0.2, -0.3, 0.1, 0.4)
    assert apply(eye, z) == z


def test_apply_preserves_the_ball(generic_pool):
    rng = np.random.default_rng(17)
    for t in generic_pool[:25]:
        v = rng.normal(size=4)
        v *= rng.uniform(0.0, 0.999) / np.linalg.norm(v)
        image = apply(t, Quaternion(*v))
        assert image.norm() < 1.0 + 1e-12


def test_apply_rejects_boundary_points(example):
    # a NaN point is not inside the ball either
    for z in (Quaternion(1.0), Quaternion(0.8, 0.8, 0, 0),
              Quaternion(math.nan), Quaternion(0.1, 0.0, math.nan, 0.0)):
        with pytest.raises(ValueError):
            apply(example, z)


def test_apply_rejects_a_nan_image():
    # Built past validate: membership would reject the NaN entry.
    bad = GroupElement(Mat2H(Quaternion(math.nan), QI, QI, Quaternion(1.0)),
                       0.0)
    with pytest.raises(BallViolationError):
        apply(bad, Quaternion(0.2, -0.1, 0.0, 0.3))


def _apply_by_quaternions(t, z):
    """The ball action written with Quaternion operations: the bit
    reference of apply inside the ball and away from poles."""
    m = t.m
    return (m.a * z + m.b) * (m.c * z + m.d).inverse()


def _ball_points(rng, count):
    points = [Quaternion(0.0, -0.0, 0.0, -0.0), Quaternion(-0.0, 0.0, -0.0),
              Quaternion(0.5, -0.0, 0.0, -0.0), Quaternion(-0.0, 0.3, -0.0, 0.0)]
    for _ in range(count):
        v = rng.normal(size=4)
        v *= rng.uniform(0.0, 0.999) / np.linalg.norm(v)
        points.append(Quaternion(*v.tolist()))
    return points


def test_apply_keeps_the_bits_of_the_quaternion_route(class_pool, example,
                                                      signed_zero_inputs):
    rng = np.random.default_rng(29)
    elements = [t for pool in class_pool.values() for t in pool]
    elements += signed_zero_inputs + [example, ROTOR,
                                      validate(Mat2H.identity())]
    for t in elements:
        for z in _ball_points(rng, 6):
            assert same_bits(apply(t, z).as_list(),
                             _apply_by_quaternions(t, z).as_list()), (t, z)


def test_apply_composes_like_the_group(example, generic_pool):
    g = generic_pool[0]
    z = Quaternion(0.1, 0.2, -0.3, 0.05)
    combined = validate(example.m @ g.m)
    assert (apply(example, apply(g, z)) - apply(combined, z)).norm() < 1e-10


def test_coarse_class_is_conjugation_invariant(class_pool, generic_pool):
    for elements in class_pool.values():
        for k, t in enumerate(elements[:3]):
            got = classify(conjugate(t, generic_pool[k]))
            assert got.coarse == classify(t).coarse
