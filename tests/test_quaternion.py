"""Quaternion arithmetic, similarity classes, and the intertwiner solver."""

import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quatu11 import ONE, QI, QJ, QK, ZERO, Quaternion, is_similar, solve_similarity
from quatu11.errors import NotSimilarError
from quatu11.quaternion import _conj, _inverse, _qmul

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)
units = quaternions.filter(lambda q: q.norm() > 1e-3).map(lambda q: q.normalized())


def test_multiplication_table():
    assert QI * QJ == QK
    assert QJ * QK == QI
    assert QK * QI == QJ
    assert QJ * QI == -QK
    assert QI * QI == -ONE
    assert QJ * QJ == -ONE
    assert QK * QK == -ONE


def test_basic_arithmetic():
    p = Quaternion(1.0, 2.0, 3.0, 4.0)
    q = Quaternion(0.5, -1.0, 0.0, 2.0)
    assert (p + q) - q == p
    assert p + ZERO == p
    assert p * ONE == p
    assert (-p) + p == ZERO
    assert (2.0 * p).as_list() == [2.0, 4.0, 6.0, 8.0]
    assert (p / 2.0).as_list() == [0.5, 1.0, 1.5, 2.0]


@given(p=quaternions, q=quaternions, r=quaternions)
def test_multiplication_associative(p, q, r):
    lhs = (p * q) * r
    rhs = p * (q * r)
    assert (lhs - rhs).norm() <= 1e-9 * (1.0 + p.norm() * q.norm() * r.norm())


signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False))
signed_quaternions = st.builds(Quaternion, signed, signed, signed, signed)
small = st.integers(min_value=-20, max_value=20).map(float)
small_parts = st.tuples(small, small, small, small)
# 2^k times a quaternion with one, two or four parts of +-1 and the rest 0:
# |p|^2 is a power of two, so the parts of p^-1 are exact
dyadic_norm_parts = st.builds(
    lambda signs, k: tuple(math.ldexp(v, k) for v in signs),
    st.sampled_from([v for v in itertools.product((0.0, 1.0, -1.0), repeat=4)
                     if sum(map(abs, v)) in (1.0, 2.0, 4.0)]),
    st.integers(min_value=-3, max_value=3))

# e_r e_c for the basis (1, i, j, k) in row r, column c, as +-(index + 1)
BASIS_PRODUCTS = ((1, 2, 3, 4),
                  (2, -1, 4, -3),
                  (3, -4, -1, 2),
                  (4, 3, -2, -1))


def _expanded_product(p, q) -> tuple:
    """p q summed term by term over the basis table."""
    out = [0.0] * 4
    for r, row in enumerate(BASIS_PRODUCTS):
        for c, e in enumerate(row):
            out[abs(e) - 1] += (1.0 if e > 0 else -1.0) * p[r] * q[c]
    return tuple(out)


@given(p=small_parts, q=small_parts, u=dyadic_norm_parts, s=signed_quaternions)
def test_part_forms_keep_the_bits_of_the_quaternion_operations(p, q, u, s):
    # Every product and sum of these parts is exact, in any order.
    assert _qmul(p, q) == _expanded_product(p, q)
    assert _expanded_product(_inverse(u), u) == (1.0, 0.0, 0.0, 0.0)
    assert _expanded_product(u, _inverse(u)) == (1.0, 0.0, 0.0, 0.0)
    # repr shows the sign of a zero and every last bit, overflow included.
    assert repr(_conj(s.as_list())) == repr(tuple(s.conjugate().as_list()))


@given(p=quaternions, q=quaternions)
def test_norm_is_multiplicative(p, q):
    assert abs((p * q).norm() - p.norm() * q.norm()) <= 1e-9 * (1.0 + p.norm() * q.norm())


@given(p=quaternions, q=quaternions)
def test_conjugate_reverses_products(p, q):
    assert ((p * q).conjugate() - q.conjugate() * p.conjugate()).norm() <= 1e-9 * (
        1.0 + p.norm() * q.norm())


def test_norm_and_parts():
    q = Quaternion(1.0, 2.0, 2.0, 4.0)
    assert q.norm() == 5.0
    assert q.norm_sq() == 25.0
    assert abs(q) == 5.0
    assert q.imag() == Quaternion(0.0, 2.0, 2.0, 4.0)
    assert q.imag_norm() == math.sqrt(24.0)
    assert q.conjugate() == Quaternion(1.0, -2.0, -2.0, -4.0)


def test_inverse_is_two_sided():
    q = Quaternion(0.3, -1.2, 0.7, 2.1)
    assert (q * q.inverse() - ONE).norm() < 1e-12
    assert (q.inverse() * q - ONE).norm() < 1e-12
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_integer_powers():
    # Products and inverses are spelled out; there is no power operator.
    q = Quaternion(0.5, 0.5, 0.5, 0.5)
    for n in (0, 1, 3, -2):
        with pytest.raises(TypeError):
            q ** n


def test_similarity_is_real_part_and_modulus():
    assert is_similar(QI, QJ)
    assert is_similar(QI, -QI)
    assert is_similar(Quaternion(1.0, 1.0, 0.0, 0.0), Quaternion(1.0, 0.0, -1.0, 0.0))
    assert not is_similar(QI, ONE)
    assert not is_similar(Quaternion(1.0, 1.0, 0.0, 0.0), Quaternion(1.0, 2.0, 0.0, 0.0))


@given(q=quaternions, u=units)
def test_conjugation_preserves_similarity(q, u):
    assert is_similar(q, u * q * u.inverse(), tol=1e-6)


@given(q=quaternions, u=units)
def test_solve_similarity_intertwines(q, u):
    s = u * q * u.inverse()
    x = solve_similarity(s, q)
    assert (s * x - x * q).norm() <= 1e-7 * (1.0 + q.norm())
    assert abs(x.norm() - 1.0) < 1e-9


def test_solve_similarity_degenerate_directions():
    # Im(u) antiparallel to Im(s): the generic intertwiner 1 - I*J vanishes
    # and the solver must fall back to a perpendicular axis.
    x = solve_similarity(QI, -QI)
    assert (QI * x - x * (-QI)).norm() < 1e-12
    # same similarity class, fixed deterministic choice
    assert x == solve_similarity(QI, -QI)


def test_solve_similarity_real_input():
    assert solve_similarity(Quaternion(2.0), Quaternion(2.0)) == ONE


def test_solve_similarity_rejects_dissimilar():
    with pytest.raises(NotSimilarError):
        solve_similarity(QI, Quaternion(2.0, 3.0, 0.0, 0.0))


def test_solve_similarity_rejects_a_real_target_for_a_non_real_source():
    # 1 + 1e-5 i and 1 are similar within SIMILARITY_TOL, but no unit x
    # turns a real quaternion into a non-real one
    with pytest.raises(NotSimilarError, match=" is real but .* is not"):
        solve_similarity(Quaternion(1.0, 1e-5), Quaternion(1.0))


def test_json_round_trip():
    q = Quaternion(1.5, -2.0, 0.25, 3.0)
    assert Quaternion.from_list(q.as_list()) == q


def _bits(q):
    return [(type(v), float(v).hex()) for v in q.as_list()]


@pytest.mark.parametrize("copier", [
    lambda q: pickle.loads(pickle.dumps(q)), copy.copy, copy.deepcopy])
def test_copies_keep_every_bit(copier):
    q = Quaternion(-0.0, np.float64(1.0) / 3.0, 2.5, -1e-300)
    got = copier(q)
    assert got == q
    assert _bits(got) == _bits(q)


def test_fields_are_read_only():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(AttributeError):
        q.w = 5.0
    with pytest.raises(AttributeError):
        q.extra = 5.0
    with pytest.raises(AttributeError):
        del q.x
    assert q.as_list() == [1.0, 2.0, 3.0, 4.0]


def test_repr_equality_and_hash():
    assert repr(Quaternion(1.0, -0.0, 2.5)) == \
        "Quaternion(w=1.0, x=-0.0, y=2.5, z=0.0)"
    assert Quaternion(w=1.0, z=2.0) == Quaternion(1.0, 0.0, 0.0, 2.0)
    assert Quaternion(1.0) != (1.0, 0.0, 0.0, 0.0)
    assert Quaternion(1.0) != 1.0
    assert hash(Quaternion(0.5, 1.0)) == hash(Quaternion(0.5, 1.0, 0.0, 0.0))
    assert len({Quaternion(0.5, 1.0), Quaternion(0.5, 1.0, 0.0, 0.0)}) == 1


def test_real_scalars_coerce_with_a_zero_imaginary_part():
    # a real operand becomes (r, 0.0, 0.0, 0.0), so -0.0 + 0.0 gives 0.0
    q = Quaternion(1.0, -0.0, -0.0, -0.0)
    assert _bits(q + 1.0) == _bits(Quaternion(2.0, 0.0, 0.0, 0.0))
    assert _bits(1.0 + q) == _bits(q + 1.0)
    assert _bits(1.0 - q) == _bits(Quaternion(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(TypeError):
        q + "1"


@pytest.mark.parametrize("op", [lambda: QI + "x", lambda: QI - "x",
                                lambda: "x" * QI, lambda: QI / QI],
                         ids=["add", "sub", "rmul", "truediv"])
def test_refused_operands_raise_type_error(op):
    # q / p is refused on purpose: it could mean q p^-1 or p^-1 q
    with pytest.raises(TypeError):
        op()
