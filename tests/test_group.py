"""Group membership, the J-unitary inverse, conjugation, and sampling."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from quatu11 import (J, Mat2H, MoebiusClass, QI, QJ, Quaternion, conjugate,
                     inverse_u11, is_member, membership_residual,
                     random_element, validate)
from quatu11.errors import HintExhaustedError, MembershipError
from quatu11.moebius import classify

R2 = math.sqrt(2)

ROTOR = validate(Mat2H(Quaternion(R2), QI, -QI, Quaternion(R2)))


def test_identity_is_a_member(example):
    assert is_member(Mat2H.identity())
    assert membership_residual(Mat2H.identity()) == 0.0
    assert example.membership_residual < 1e-12


def test_shear_is_not_a_member():
    shear = Mat2H(1.0, 1.0, 0.0, 1.0)
    assert not is_member(shear)
    with pytest.raises(MembershipError):
        validate(shear)


def test_residual_scales_with_perturbation():
    bumped = Mat2H(Quaternion(1.0 + 1e-6), Quaternion(), Quaternion(), Quaternion(1.0))
    assert 1e-6 <= membership_residual(bumped) <= 1e-5


def test_group_inverse_golden_values():
    inv = inverse_u11(ROTOR)
    assert inv.m == Mat2H(Quaternion(R2), -QI, QI, Quaternion(R2))
    both = inverse_u11(validate(Mat2H.diag(QI, QJ)))
    assert both.m == Mat2H.diag(-QI, -QJ)


def test_group_inverse_is_two_sided(generic_pool):
    eye = Mat2H.identity()
    for t in generic_pool[:20]:
        inv = inverse_u11(t)
        assert ((t.m @ inv.m) - eye).frobenius() < 1e-10
        assert ((inv.m @ t.m) - eye).frobenius() < 1e-10
        assert ((t.m.inverse()) - inv.m).frobenius() < 1e-10


def test_gram_condition_defines_membership(generic_pool):
    for t in generic_pool[:10]:
        gram = (t.m.adjoint() @ J @ t.m) - J
        assert gram.frobenius() < 1e-9


def _membership_residual_with_full_gram(m: Mat2H) -> float:
    """membership_residual with the Gram term formed as T* J T - J."""
    a, b, c, d = m.entries()
    entrywise = max(
        abs(a.norm() - d.norm()),
        abs(b.norm() - c.norm()),
        abs(a.norm_sq() - c.norm_sq() - 1.0),
        (a.conjugate() * b - c.conjugate() * d).norm(),
        (a * c.conjugate() - b * d.conjugate()).norm(),
    )
    return max(entrywise, (m.adjoint() @ J @ m - J).frobenius())


def test_shortcuts_are_bit_identical_on_class_pool(class_pool):
    elements = [t for pool in class_pool.values() for t in pool]
    for t, g in zip(elements, elements[1:] + elements[:1]):
        for m in (t.m, Mat2H(t.m.a, t.m.b, t.m.c, -t.m.d)):
            want = _membership_residual_with_full_gram(m)
            assert repr(membership_residual(m)) == repr(want)
        got = conjugate(t, g).m
        want = g.m @ t.m @ inverse_u11(g).m
        assert got == want
        assert repr(got) == repr(want)


magnitudes = st.floats(min_value=1e-150, max_value=1e150)
components = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(min_value=-1000, max_value=1000),
    magnitudes,
    magnitudes.map(lambda v: -v),
)
matrices = st.builds(
    Mat2H, *(st.builds(Quaternion, components, components, components,
                       components) for _ in range(4)))


@settings(deadline=None)
@given(m=matrices)
def test_float_residual_matches_quaternion_route(m):
    # Squares of components near 1e150 overflow, so inf and nan are drawn too.
    assert repr(membership_residual(m)) == repr(
        _membership_residual_with_full_gram(m))


def test_float_residual_matches_quaternion_route_on_members():
    # Off the group the Gram term is the largest by far; on members every
    # term is at roundoff level, and a conj(c) - b conj(d) wins about one
    # time in twenty, so each term's bits are exercised here.
    for hint in [None] + [c.value for c in MoebiusClass]:
        for k in range(40):
            m = random_element([71, k], hint).m
            assert repr(membership_residual(m)) == repr(
                _membership_residual_with_full_gram(m))


def test_nan_residual_fails_validation():
    huge = Quaternion(1e200)
    m = Mat2H(huge, Quaternion(), Quaternion(), huge)
    assert math.isnan(membership_residual(m))
    assert not is_member(m)
    with pytest.raises(MembershipError):
        validate(m)
    # |b| - |c| and the Gram term are NaN here while |a| - |d| is 0; a NaN
    # term must not be passed over by max(), or this non-member reads 0.0.
    tiny = Quaternion(1e-150)
    trap = Mat2H(tiny, Quaternion(1e155, 1e155), Quaternion(1e155, -1e155),
                 tiny)
    assert not math.isfinite(membership_residual(trap))
    assert not is_member(trap)
    with pytest.raises(MembershipError):
        validate(trap)


def test_conjugation_by_identity_and_inverse(example, generic_pool):
    eye = validate(Mat2H.identity())
    assert conjugate(example, eye).m == example.m
    g = generic_pool[0]
    back = conjugate(conjugate(example, g), inverse_u11(g))
    assert (back.m - example.m).frobenius() < 1e-9


def test_conjugating_diagonal_by_diagonal_units():
    u = Quaternion(0.5, 0.5, 0.5, 0.5)
    s, sp = QI, QJ
    t = validate(Mat2H.diag(s, sp))
    g = validate(Mat2H.diag(u, u))
    got = conjugate(t, g)
    assert (got.m.a - u * s * u.inverse()).norm() < 1e-12
    assert (got.m.d - u * sp * u.inverse()).norm() < 1e-12
    assert got.m.b.norm() == 0.0 and got.m.c.norm() == 0.0


def test_known_conjugator_diagonalizes_the_example(example):
    # X = [[r2, i], [-1, -r2 i]] takes the example to diag(1, -i)
    x = validate(Mat2H(Quaternion(R2), QI,
                       Quaternion(-1.0), Quaternion(0.0, -R2, 0.0, 0.0)))
    got = conjugate(example, x)
    want = Mat2H.diag(Quaternion(1.0), -QI)
    assert (got.m - want).frobenius() < 1e-12


def test_random_element_is_deterministic():
    first = random_element(42)
    second = random_element(42)
    assert first.m == second.m
    assert random_element(43).m != first.m
    # composite seeds address independent streams
    assert random_element([42, 0]).m != random_element([42, 1]).m


def test_random_element_lands_in_group():
    for k in range(25):
        t = random_element([50, k])
        assert t.membership_residual < 1e-9


@pytest.mark.parametrize("name", [c.value for c in MoebiusClass])
def test_class_hints_deliver_their_class(name):
    for k in range(4):
        t = random_element([51, k], class_hint=name)
        assert classify(t).value == name
        assert t.membership_residual < 1e-9


def test_unknown_hint_is_rejected():
    with pytest.raises(ValueError):
        random_element(1, class_hint="Hyperbolic")


def test_hint_exhaustion_surfaces():
    with pytest.raises(HintExhaustedError):
        random_element(1, class_hint="CompoundLoxodromic", max_attempts=0)
