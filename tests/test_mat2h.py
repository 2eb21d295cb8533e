"""Matrix arithmetic, the complex adjoint embedding, and singularity tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatu11 import Mat2H, QI, QJ, QK, Quaternion, left_eigenvalues
from quatu11.errors import NotApplicableError
from quatu11.mat2h import SINGULAR_TOL

from probes import (R2, hex_parts, huge_finite_matrices, non_finite_matrices,
                    parts_matrix, quaternion_matmul)


def _random_matrix(rng) -> Mat2H:
    return parts_matrix(rng.uniform(-10.0, 10.0, size=16))


def test_identity_and_diag():
    eye = Mat2H.identity()
    assert eye.a == Quaternion(1.0) and eye.d == Quaternion(1.0)
    assert eye.b == Quaternion() and eye.c == Quaternion()
    m = Mat2H.diag(QI, 2.0)
    assert m.a == QI and m.d == Quaternion(2.0)


def test_entries_coerce_reals():
    m = Mat2H(1, 0.0, QJ, -2)
    assert m.a == Quaternion(1.0)
    assert m.d == Quaternion(-2.0)
    with pytest.raises(TypeError):
        Mat2H("1", 0, 0, 1)


def test_matmul_identity_and_associativity():
    rng = np.random.default_rng(5)
    eye = Mat2H.identity()
    for _ in range(10):
        m, n, p = (_random_matrix(rng) for _ in range(3))
        assert ((m @ eye) - m).frobenius() == 0.0
        lhs = (m @ n) @ p
        rhs = m @ (n @ p)
        assert (lhs - rhs).frobenius() <= 1e-9 * (1.0 + m.frobenius() * n.frobenius() * p.frobenius())


def _bits(m: Mat2H) -> tuple:
    # repr tells -0.0 from 0.0 and an int from a float, which == does not
    return tuple(repr(v) for q in (m.a, m.b, m.c, m.d) for v in q.as_list())


def _assert_same_product(x: Mat2H, y: Mat2H) -> None:
    got, want = x @ y, quaternion_matmul(x, y)
    assert got == want
    assert _bits(got) == _bits(want)


def test_fused_product_matches_quaternion_route_on_pools(class_pool,
                                                         generic_pool):
    elements = [t.m for pool in class_pool.values() for t in pool]
    elements += [t.m for t in generic_pool]
    for x, y in zip(elements, elements[1:] + elements[:1]):
        _assert_same_product(x, y)
        _assert_same_product(x, x.adjoint())


components = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, -1]),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
matrices = st.builds(
    Mat2H, *(st.builds(Quaternion, components, components, components,
                       components) for _ in range(4)))


@settings(deadline=None)
@given(x=matrices, y=matrices)
def test_fused_product_matches_quaternion_route(x, y):
    _assert_same_product(x, y)


def test_left_scalar_multiplication():
    m = Mat2H(QI, QJ, QK, Quaternion(1.0))
    assert (2.0 * m).a == Quaternion(0.0, 2.0, 0.0, 0.0)
    assert (QJ * m).a == QJ * QI
    assert QJ * m == Mat2H(QJ * QI, QJ * QJ, QJ * QK, QJ)


def test_real_scalar_scales_every_part():
    # no Hamilton product with the zero parts of Quaternion.real(s), which
    # would turn -0.0 parts of the result into +0.0
    ch, sh = math.cosh(0.7), math.sinh(0.7)
    for m in (Mat2H(ch, sh, sh, ch),
              Mat2H(Quaternion(-0.0, 1.0, 0.0, -2.5), QJ, Quaternion(3.0),
                    Quaternion(0.0, -0.0, 0.5, 0.0))):
        negated = Mat2H(*(Quaternion(*(-v for v in q.as_list()))
                          for q in (m.a, m.b, m.c, m.d)))
        assert hex_parts(-1.0 * m) == hex_parts(negated)
        assert hex_parts(-1 * m) == hex_parts(negated)
        assert hex_parts(1.0 * m) == hex_parts(m)
        assert hex_parts(2.5 * m) == [float(2.5 * v).hex()
                                      for v in (p for q in (m.a, m.b, m.c, m.d)
                                                for p in q.as_list())]


def test_adjoint_transposes_and_conjugates():
    m = Mat2H(QI, QJ, QK, Quaternion(1.0, 1.0, 0.0, 0.0))
    s = m.adjoint()
    assert s.a == -QI and s.b == -QK and s.c == -QJ
    assert (m.adjoint().adjoint() - m).frobenius() == 0.0


def test_trace_golden_values():
    assert Mat2H.identity().tr() == 4.0
    assert Mat2H.diag(QI, QJ).tr() == 0.0
    a = Quaternion(2.0, 1.0, 0.0, 0.0)
    b = Quaternion(-R2, R2, 0.0, 0.0)
    d = Quaternion(-1.0, -2.0, 0.0, 0.0)
    assert Mat2H(a, b, b, d).tr() == 2.0


def test_chi_is_a_homomorphism():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = _random_matrix(rng)
        n = _random_matrix(rng)
        scale = 1.0 + m.frobenius() * n.frobenius()
        assert np.max(np.abs((m @ n).chi() - m.chi() @ n.chi())) <= 1e-12 * scale
        assert np.max(np.abs(m.chi().conj().T - m.adjoint().chi())) == 0.0


def _chi_by_entries(m: Mat2H) -> np.ndarray:
    """chi filled block by block from Python complexes: the bit reference."""
    out = np.empty((4, 4), dtype=complex)
    for row, col, q in ((0, 0, m.a), (0, 2, m.b), (2, 0, m.c), (2, 2, m.d)):
        z = complex(q.w, q.x)
        v = complex(q.y, q.z)
        out[row, col] = z
        out[row, col + 1] = v
        out[row + 1, col] = -v.conjugate()
        out[row + 1, col + 1] = z.conjugate()
    return out


def test_chi_keeps_the_bits_of_the_entrywise_fill(class_pool,
                                                  signed_zero_inputs):
    rng = np.random.default_rng(19)
    matrices = [t.m for pool in class_pool.values() for t in pool]
    matrices += [t.m for t in signed_zero_inputs]
    matrices += [_random_matrix(rng) for _ in range(20)]
    for bits in ((0.0, -0.0, 1.5, -2.0), (-0.0, -0.0, 0.0, -0.0), (1, 0, 0, 2)):
        matrices.append(Mat2H(*(Quaternion(*bits[k:] + bits[:k])
                                for k in range(4))))
    for m in matrices:
        got, want = m.chi(), _chi_by_entries(m)
        assert got.shape == (4, 4) and got.dtype == complex
        parts, ref = got.view(float).ravel(), want.view(float).ravel()
        assert (parts == ref).all(), m
        assert (np.signbit(parts) == np.signbit(ref)).all(), m


def test_trace_is_similarity_invariant():
    # X = [[1, r], [0, 1]] diag(p, q) [[1, 0], [s, 1]] is a general invertible
    # matrix, and its factors' inverses are explicit.
    rng = np.random.default_rng(13)
    for _ in range(15):
        m = _random_matrix(rng)
        f = _random_matrix(rng)
        p, q, r, s = f.a, f.b, f.c, f.d
        x = Mat2H(1, r, 0, 1) @ Mat2H.diag(p, q) @ Mat2H(1, 0, s, 1)
        xi = (Mat2H(1, 0, -s, 1) @ Mat2H.diag(p.inverse(), q.inverse())
              @ Mat2H(1, -r, 0, 1))
        conj = x @ m @ xi
        assert abs(conj.tr() - m.tr()) \
            <= 1e-8 * (1.0 + abs(m.tr())) * x.frobenius() * xi.frobenius()


def test_is_singular_golden_values():
    # second row equals k times the first, a genuine rank drop
    assert Mat2H(QI, QJ, QJ, -QI).is_singular()
    assert not Mat2H.identity().is_singular()
    # noncommutative Schur complement a - b d^{-1} c = i - j(-1)k = 2i != 0,
    # so despite its look this one is invertible
    assert not Mat2H(QI, QJ, QK, Quaternion(-1.0)).is_singular()
    # every part subnormal: 2^-e would overflow, so e is floored at 0
    assert (5e-324 * Mat2H.identity()).is_singular()


@pytest.mark.parametrize("m,shown", non_finite_matrices())
def test_is_singular_rejects_a_non_finite_matrix(m, shown, capfd):
    # an inf part used to answer False and print LAPACK's DLASCL lines to
    # stderr; a NaN part raised numpy's LinAlgError from the SVD
    with pytest.raises(NotApplicableError,
                       match=f"needs a finite matrix norm, got {shown}$"):
        m.is_singular()
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("m", huge_finite_matrices())
def test_is_singular_rejects_a_huge_finite_matrix(m, capfd):
    # Despite the name, an answer is required: numpy's unscaled norm
    # overflows from parts of about 1e154, but on chi(M) 2^-e, e the
    # exponent of the largest part, the norm is finite and the SVD decides.
    e = math.frexp(max(map(abs, m._p)))[1]
    rep = np.ldexp(m.chi().view(float), -e).view(complex)
    want = np.linalg.svd(rep, compute_uv=False)[-1] \
        <= SINGULAR_TOL * (2.0 ** -e + np.linalg.norm(rep))
    assert m.is_singular() is bool(want)
    assert capfd.readouterr() == ("", "")


def test_is_singular_decides_as_the_unscaled_svd(class_pool, generic_pool):
    # Scaling chi(M) by a power of two is exact, so wherever numpy's
    # unscaled norm is finite each decision is that of sigma_min <= tol
    # (1 + ||chi(M)||_F), bit for bit.  Probes: M - lam I near each left
    # eigenvalue lam of the pooled draws, scaled by 1e-150, 1 and 1e150.
    pool = [t for ts in class_pool.values() for t in ts] + generic_pool
    decisions = {tol: set() for tol in (1e-12, 1e-9, 1e-7)}
    for t in pool:
        for lam in left_eigenvalues(t.m).points:
            for shift in (0.0, 1e-13, 1e-11, 1e-9, 1e-7, 1e-5):
                near = t.m - Mat2H.diag(lam + shift, lam + shift)
                for scale in (1e-150, 1.0, 1e150):
                    probe = scale * near
                    rep = probe.chi()
                    norm = np.linalg.norm(rep)
                    assert math.isfinite(norm)
                    smallest = np.linalg.svd(rep, compute_uv=False)[-1]
                    for tol, seen in decisions.items():
                        want = bool(smallest <= tol * (1.0 + norm))
                        assert probe.is_singular(tol) is want, (probe, tol)
                        seen.add(want)
    assert all(seen == {True, False} for seen in decisions.values())


def test_json_round_trip_and_validation():
    m = Mat2H(QI, QJ, QK, Quaternion(1.5, -0.5, 0.25, 0.0))
    assert Mat2H.from_json(m.to_json()) == m
    with pytest.raises(ValueError):
        Mat2H.from_json({"a": [1, 0, 0, 0]})
    with pytest.raises(ValueError):
        Mat2H.from_json({"a": [1, 0, 0], "b": [0] * 4, "c": [0] * 4, "d": [0] * 4})
    with pytest.raises(ValueError):
        Mat2H.from_json({"a": [math.inf, 0, 0, 0], "b": [0] * 4,
                         "c": [0] * 4, "d": [0] * 4})


@pytest.mark.parametrize("op", [lambda m: m + 1, lambda m: m - "x",
                                lambda m: m @ 2, lambda m: None * m],
                         ids=["add", "sub", "matmul", "rmul"])
def test_refused_operands_raise_type_error(op):
    with pytest.raises(TypeError):
        op(Mat2H.identity())
