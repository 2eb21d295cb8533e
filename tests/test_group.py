"""Group membership, the J-unitary inverse, conjugation, and sampling."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import quatu11.group
import quatu11.mat2h
import quatu11.moebius
from quatu11 import (J, Mat2H, MoebiusClass, QI, QJ, Quaternion, conjugate,
                     inverse_u11, membership_residual, random_element,
                     validate)
from quatu11.errors import (HintExhaustedError, MembershipDriftError,
                            MembershipError)
from quatu11.group import (MEMBERSHIP_TOL, GroupElement, _boost,
                           _boost_parameter, _candidate, _j_adjoint,
                           _sandwich, _unit_vectors)
from quatu11.mat2h import _from_parts
from quatu11.moebius import classify
from quatu11.quaternion import _conj
from quatu11.spectra import SpectralSphere, SphereFamily

from probes import R2, quaternion_matmul, rotor


def test_identity_is_a_member(example):
    assert membership_residual(Mat2H.identity()) == 0.0
    assert example.membership_residual < 1e-12


def test_shear_is_not_a_member():
    shear = Mat2H(1.0, 1.0, 0.0, 1.0)
    assert not membership_residual(shear) <= MEMBERSHIP_TOL
    with pytest.raises(MembershipError):
        validate(shear)


def test_residual_scales_with_perturbation():
    bumped = Mat2H(Quaternion(1.0 + 1e-6), Quaternion(), Quaternion(), Quaternion(1.0))
    assert 1e-6 <= membership_residual(bumped) <= 1e-5


def test_group_inverse_golden_values():
    inv = inverse_u11(rotor())
    assert inv.m == Mat2H(Quaternion(R2), -QI, QI, Quaternion(R2))
    both = inverse_u11(validate(Mat2H.diag(QI, QJ)))
    assert both.m == Mat2H.diag(-QI, -QJ)


def test_group_inverse_is_two_sided(generic_pool):
    eye = Mat2H.identity()
    for t in generic_pool[:20]:
        inv = inverse_u11(t)
        assert ((t.m @ inv.m) - eye).frobenius() < 1e-10
        assert ((inv.m @ t.m) - eye).frobenius() < 1e-10


def test_gram_condition_defines_membership(generic_pool):
    for t in generic_pool[:10]:
        gram = (t.m.adjoint() @ J @ t.m) - J
        assert gram.frobenius() < 1e-9


def _membership_residual_with_full_gram(m: Mat2H) -> float:
    """membership_residual with the Gram term formed as T* J T - J."""
    a, b, c, d = m.a, m.b, m.c, m.d
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
    assert not membership_residual(m) <= MEMBERSHIP_TOL
    with pytest.raises(MembershipError):
        validate(m)
    # |b| - |c| and the Gram term are NaN here while |a| - |d| is 0; a NaN
    # term must not be passed over by max(), or this non-member reads 0.0.
    tiny = Quaternion(1e-150)
    trap = Mat2H(tiny, Quaternion(1e155, 1e155), Quaternion(1e155, -1e155),
                 tiny)
    assert not math.isfinite(membership_residual(trap))
    assert not membership_residual(trap) <= MEMBERSHIP_TOL
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


def test_conjugate_is_formed_once_per_pair(generic_pool):
    t, g, h = validate(generic_pool[3].m), generic_pool[4], generic_pool[5]
    first = conjugate(t, g)
    assert conjugate(t, g) is first
    assert first.m == g.m @ t.m @ inverse_u11(g).m
    # an equal but distinct g is a miss too; the cache goes by identity
    twin = validate(g.m)
    assert twin == g
    again = conjugate(t, twin)
    assert again is not first and again == first
    other = conjugate(t, h)
    assert other is not again
    assert other.m == h.m @ t.m @ inverse_u11(h).m


def test_conjugate_cache_hit_still_checks_drift(generic_pool):
    t, g = validate(generic_pool[6].m), generic_pool[7]
    residual = conjugate(t, g).membership_residual
    assert residual > 0.0
    with pytest.raises(MembershipDriftError):
        conjugate(t, g, tol=residual / 1000.0)
    assert conjugate(t, g).membership_residual == residual


# -- Quaternion-form bodies: the bit reference of the part-tuple routes ----


def _quaternion_j_adjoint(m: Mat2H) -> Mat2H:
    """J M* J, written out entrywise."""
    return Mat2H(m.a.conjugate(), -m.c.conjugate(),
                 -m.b.conjugate(), m.d.conjugate())


def _quaternion_boost(t: float) -> Mat2H:
    ch, sh = math.cosh(t), math.sinh(t)
    return Mat2H(Quaternion.real(ch), Quaternion.real(sh),
                 Quaternion.real(sh), Quaternion.real(ch))


def _parabolic(mu: float, sign: float) -> Mat2H:
    return sign * Mat2H(Quaternion(1.0, mu), Quaternion(0.0, -mu),
                        Quaternion(0.0, mu), Quaternion(1.0, -mu))


def _quaternion_parabolic_base(rng) -> Mat2H:
    mu = float(rng.standard_normal())
    while abs(mu) < 0.05:
        mu = float(rng.standard_normal())
    return _parabolic(mu, -1.0 if rng.random() < 0.5 else 1.0)


def _dyadic_elements(count: int) -> list:
    """Off-group matrices whose parts are mostly signed zeros, wrapped as
    GroupElements: every product is exact, so only the sign of a zero
    tells one order of operations from another."""
    rng = np.random.default_rng(211)
    values = [0.0, -0.0, 0.5, -1.0, 1.5, -2.0]
    weights = [0.35, 0.35, 0.075, 0.075, 0.075, 0.075]
    out = []
    for _ in range(count):
        m = _from_parts(tuple(float(v) for v in rng.choice(values, 16,
                                                           p=weights)))
        out.append(GroupElement(m, membership_residual(m)))
    return out


def _conjugation_pairs(class_pool, generic_pool) -> list:
    members = [t for pool in class_pool.values() for t in pool]
    members += generic_pool[:30]
    dyadic = _dyadic_elements(1000)
    return [pair for elements in (members, dyadic)
            for pair in zip(elements, elements[1:] + elements[:1])]


def test_conjugate_keeps_the_bits_of_the_matmul_route(class_pool,
                                                      generic_pool):
    for t, g in _conjugation_pairs(class_pool, generic_pool):
        # the dyadic matrices are off the group, so no drift bound applies
        got = conjugate(t, g, tol=math.inf)
        want = quaternion_matmul(quaternion_matmul(g.m, t.m),
                                 _quaternion_j_adjoint(g.m))
        assert repr(got.m) == repr(want)
        assert repr(g.m @ t.m @ _j_adjoint(g.m)) == repr(want)
        assert float.hex(got.membership_residual) == \
            float.hex(membership_residual(want))
        inverse, want = inverse_u11(g), _quaternion_j_adjoint(g.m)
        assert repr(inverse.m) == repr(want)
        assert float.hex(inverse.membership_residual) == \
            float.hex(membership_residual(want))


# -- the sampler against the matmul route it replaced ----------------------


def _matmul_unit_quaternion(rng) -> Quaternion:
    v = rng.standard_normal(4)
    n = math.sqrt(float(v.dot(v)))
    while n < 1e-6:
        v = rng.standard_normal(4)
        n = math.sqrt(float(v.dot(v)))
    return Quaternion(*[float(p) / n for p in v])


def _matmul_bounded_unit(rng) -> Quaternion:
    u = _matmul_unit_quaternion(rng)
    while abs(u.w) > 0.9:
        u = _matmul_unit_quaternion(rng)
    return u


def _matmul_generic(rng, floor: float = 0.0) -> Mat2H:
    left = Mat2H.diag(_matmul_unit_quaternion(rng),
                      _matmul_unit_quaternion(rng))
    right = Mat2H.diag(_matmul_unit_quaternion(rng),
                       _matmul_unit_quaternion(rng))
    return left @ _quaternion_boost(_boost_parameter(rng, floor)) @ right


def _matmul_diag_unit_conjugate(rng, base: Mat2H) -> Mat2H:
    g = Mat2H.diag(_matmul_unit_quaternion(rng), _matmul_unit_quaternion(rng))
    return g @ base @ g.adjoint()


def _matmul_candidate(rng, hint):
    """The sampler's candidate as full 2x2 products formed it, draw by draw."""
    if hint is None:
        return _matmul_generic(rng)
    if hint == "SimpleElliptic":
        u = _matmul_bounded_unit(rng)
        g = _matmul_unit_quaternion(rng)
        base = Mat2H.diag(u, g * u * g.conjugate())
    elif hint == "CompoundElliptic":
        u = _matmul_bounded_unit(rng)
        v = _matmul_bounded_unit(rng)
        while abs(u.w - v.w) < 0.1:
            v = _matmul_bounded_unit(rng)
        base = Mat2H.diag(u, v)
    elif hint == "SimpleParabolic":
        return _matmul_diag_unit_conjugate(rng,
                                           _quaternion_parabolic_base(rng))
    elif hint == "CompoundParabolic":
        while True:
            u1, u2, u3, u4 = (_matmul_unit_quaternion(rng) for _ in range(4))
            kappa1 = (u1 * u4 - (u2 * u3).conjugate()).norm()
            kappa2 = abs((u1 * u3).w - (u2 * u4).w)
            if kappa1 > 1e-3 and 0.05 <= kappa2 / kappa1 <= 0.95:
                break
        t = math.atanh(kappa2 / kappa1)
        for _ in range(2):
            sh, ch = math.sinh(t), math.cosh(t)
            dlt = (sh * kappa1) ** 2 - (ch * kappa2) ** 2
            t -= dlt / (2.0 * sh * ch * (kappa1 ** 2 - kappa2 ** 2))
        return Mat2H.diag(u1, u2) @ _quaternion_boost(t) @ Mat2H.diag(u3, u4)
    elif hint == "SimpleLoxodromic":
        sign = -1.0 if rng.random() < 0.5 else 1.0
        return _matmul_diag_unit_conjugate(
            rng, sign * _quaternion_boost(_boost_parameter(rng, 0.3)))
    else:
        assert hint == "CompoundLoxodromic"
        return _matmul_generic(rng, 0.3)
    conjugator = _matmul_generic(rng)
    return conjugator @ base @ _quaternion_j_adjoint(conjugator)


@pytest.mark.parametrize("hint", [None] + [c.value for c in MoebiusClass])
def test_sampler_keeps_the_bits_of_the_matmul_route(hint):
    # repr prints each float as its shortest exact round trip, so a sign of
    # zero that moved would show; the twin generators must also stay in step.
    for seed in range(200):
        rng = np.random.default_rng([97, seed])
        twin = np.random.default_rng([97, seed])
        for _ in range(2):  # the second candidate follows a rejection
            assert repr(_from_parts(_candidate(rng, hint))) == \
                repr(_matmul_candidate(twin, hint))
        assert rng.bit_generator.state == twin.bit_generator.state


# -- blocks of normals against one draw at a time --------------------------


def _one_unit_vector(rng, dim: int) -> tuple:
    """A unit vector drawn alone, rejecting tiny draws: the helper's rule
    applied one vector at a time."""
    v = rng.standard_normal(dim)
    n = math.sqrt(float(v.dot(v)))
    while n < 1e-6:
        v = rng.standard_normal(dim)
        n = math.sqrt(float(v.dot(v)))
    return tuple(float(p) / n for p in v)


class _ScriptedNormals:
    """Serves standard_normal(size) from a fixed list and counts what it
    read."""

    def __init__(self, values):
        self.values, self.read = values, 0

    def standard_normal(self, size):
        n = math.prod(np.atleast_1d(size).tolist())
        assert self.read + n <= len(self.values)
        self.read += n
        return np.array(self.values[self.read - n:self.read]).reshape(size)


@pytest.mark.parametrize("count, dim, tiny_rows", [
    (4, 4, [0]), (4, 4, [2]), (4, 4, [3]), (4, 4, [0, 1, 5]),
    (4, 4, [3, 4, 5]), (2, 4, [1, 2]), (1, 4, [0, 1]), (5, 3, [0, 4, 6])])
def test_unit_vectors_pass_over_tiny_rows_as_single_draws(count, dim,
                                                          tiny_rows):
    # a row of norm < 1e-6 first, in the middle, last, and in the refill
    normals = np.random.default_rng([89, count, dim]).standard_normal(
        (count + len(tiny_rows) + 3) * dim).tolist()
    for row in tiny_rows:
        normals[row * dim:(row + 1) * dim] = [3e-7, -2e-7] + [1e-7] * (dim - 2)
    block, single = _ScriptedNormals(normals), _ScriptedNormals(normals)
    got = _unit_vectors(block, count, dim)
    want = [_one_unit_vector(single, dim) for _ in range(count)]
    assert repr(got) == repr(want)
    assert block.read == single.read == (count + len(tiny_rows)) * dim


def test_sample_keeps_the_bits_of_one_draw_at_a_time():
    # a Generator passed as the seed is used as it is, so its state shows
    # what sample() read
    sphere = SpectralSphere(0.3, 1.7)
    family = SphereFamily(Quaternion(1.0, -0.5, 0.25, 2.0),
                          Quaternion(0.5, 1.5, -0.75, 0.125))
    imag = math.sqrt(max(sphere.modulus ** 2 - sphere.re ** 2, 0.0))
    for seed in range(20):
        for shape, point in (
                (sphere, lambda u: Quaternion(sphere.re, 0, 0, 0) + u * imag),
                (family, lambda u: family.alpha + family.beta * u)):
            rng = np.random.default_rng([83, seed])
            twin = np.random.default_rng([83, seed])
            got = shape.sample(1 + seed % 7, seed=rng)
            want = [point(Quaternion(0.0, *_one_unit_vector(twin, 3)))
                    for _ in range(1 + seed % 7)]
            assert repr(got) == repr(want)
            assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, [2**32], [5, 3],
                                  (5, 3), [], np.int64(7)])
def test_seed_reaches_numpy_as_the_same_state(seed, monkeypatch):
    # in-range seeds are handed over as uint32 words, the rest as they are
    states, default_rng = [], np.random.default_rng

    def recording(arg):
        rng = default_rng(arg)
        states.append(rng.bit_generator.state)
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording)
    random_element(seed)
    assert states == [default_rng(seed).bit_generator.state]


@pytest.mark.parametrize("seed", [-1, [-1]])
def test_bad_seed_raises_what_numpy_raises(seed):
    with pytest.raises(Exception) as numpy_error:
        np.random.default_rng(seed)
    with pytest.raises(Exception) as ours:
        random_element(seed)
    assert ours.type is numpy_error.type


unit_parts = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def unit_quaternions(draw):
    q = Quaternion(*(draw(unit_parts) for _ in range(4)))
    assume(q.norm() > 1e-3)
    return q.normalized()


middles = st.one_of(
    st.floats(min_value=0.0, max_value=2.25).map(_boost),
    st.builds(_parabolic, st.floats(min_value=-4.0, max_value=4.0),
              st.sampled_from([-1.0, 1.0])).map(lambda m: m._p))


@settings(deadline=None)
@given(p=unit_quaternions(), q=unit_quaternions(), m=middles,
       r=unit_quaternions(), s=unit_quaternions())
def test_sandwich_equals_the_two_matmuls(p, q, m, r, s):
    # == on floats ignores the sign of zero, and that sign is all the two
    # routes may differ in: the matmuls add a signed zero to each component.
    assert repr(_from_parts(_boost(0.5))) == repr(_quaternion_boost(0.5))
    pp, qp, rp, sp = (tuple(u.as_list()) for u in (p, q, r, s))
    want = Mat2H.diag(p, q) @ _from_parts(m) @ Mat2H.diag(r, s)
    assert _from_parts(_sandwich(pp, qp, m, rp, sp)) == want
    assert _from_parts(_sandwich(pp, qp, m, _conj(pp), _conj(qp))) == \
        Mat2H.diag(p, q) @ _from_parts(m) @ Mat2H.diag(p, q).adjoint()


def test_sampler_and_conjugate_build_no_quaternion_arithmetic(
        class_pool, generic_pool, monkeypatch):
    # Both run on part tuples and build one Mat2H for each element they
    # make: the one returned, or for a class hint each one classified.
    calls, built, classified = [], Counter(), Counter()
    for cls, names in ((Quaternion, ("__add__", "__radd__", "__sub__",
                                     "__rsub__", "__mul__", "__rmul__",
                                     "__neg__", "inverse", "conjugate",
                                     "normalized", "imag")),
                       (Mat2H, ("__add__", "__sub__", "__matmul__",
                                "__rmul__", "adjoint"))):
        for name in names:
            def counting(*args, _name=name, _method=getattr(cls, name)):
                calls.append(_name)
                return _method(*args)

            monkeypatch.setattr(cls, name, counting)

    # every Mat2H comes from Mat2H.__init__ or mat2h._from_parts, which
    # group imports by name
    def init(*args, _init=Mat2H.__init__):
        built["Mat2H"] += 1
        return _init(*args)

    def from_parts(*args, _build=quatu11.mat2h._from_parts):
        built["Mat2H"] += 1
        return _build(*args)

    def counted_classify(t, _classify=quatu11.moebius.classify):
        classified["elements"] += 1
        return _classify(t)

    monkeypatch.setattr(Mat2H, "__init__", init)
    monkeypatch.setattr(quatu11.mat2h, "_from_parts", from_parts)
    monkeypatch.setattr(quatu11.group, "_from_parts", from_parts)
    monkeypatch.setattr(quatu11.moebius, "classify", counted_classify)
    for hint in [None] + [c.value for c in MoebiusClass]:
        for k in range(20):
            built.clear()
            classified.clear()
            random_element([73, k], hint)
            assert built["Mat2H"] == (1 if hint is None
                                      else classified["elements"])
    for t, g in _conjugation_pairs(class_pool, generic_pool)[:60]:
        t = GroupElement(t.m, t.membership_residual)  # nothing cached yet
        built.clear()
        first = conjugate(t, g, tol=math.inf)
        assert conjugate(t, g, tol=math.inf) is first
        assert built["Mat2H"] == 1
    assert calls == []


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
    # refused before the first draw, so also with no attempts to spend
    for attempts in ({}, {"max_attempts": 0}):
        with pytest.raises(ValueError, match="unknown class hint"):
            random_element(1, class_hint="Hyperbolic", **attempts)


def test_hint_exhaustion_surfaces():
    with pytest.raises(HintExhaustedError):
        random_element(1, class_hint="CompoundLoxodromic", max_attempts=0)


def test_hint_exhaustion_names_what_was_missing():
    # without a hint, no candidate passed the membership tolerance
    with pytest.raises(HintExhaustedError,
                       match=r"^no group element within tol 0\.000e\+00 "
                             r"found in 3 attempts$"):
        random_element(1, None, tol=0.0, max_attempts=3)
    with pytest.raises(HintExhaustedError,
                       match=r"^no SimpleElliptic element found in 3 "
                             r"attempts$"):
        random_element(1, "SimpleElliptic", tol=0.0, max_attempts=3)
